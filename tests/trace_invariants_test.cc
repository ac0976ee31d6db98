// Trace-driven protocol invariants over real schedules: the checker in
// obs/invariants.h must pass every trace the system actually produces —
// QD1 per-method runs, the PR-1 cooperative stress schedules, and the
// OS-thread stress shape — and must catch deliberately corrupted traces
// (its own negative coverage). A reconciliation test cross-checks the
// trace against the rings' own push/pop counters, and the last tests check
// the recorder itself: its capacity, and its order and attribution under
// concurrent records.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/stress.h"
#include "core/testbed.h"
#include "obs/invariants.h"
#include "obs/trace.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;
using obs::TraceCheckOptions;
using obs::TraceCheckResult;
using obs::TraceEvent;
using obs::TraceStage;

ByteVec patterned(std::uint32_t size) {
  ByteVec payload(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    payload[i] = static_cast<Byte>(i * 11 + 3);
  }
  return payload;
}

std::string diagnose(const TraceCheckResult& result,
                     const std::vector<TraceEvent>& events) {
  std::string out = result.summary();
  out += "\n";
  for (const std::string& violation : result.violations) {
    out += "  " + violation + "\n";
  }
  out += obs::TraceRecorder::dump(events);
  return out;
}

bool has_violation(const TraceCheckResult& result, const std::string& text) {
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&](const std::string& v) {
                       return v.find(text) != std::string::npos;
                     });
}

// ---------------------------------------------------------------------------
// Positive: real traces pass the strict checker.
// ---------------------------------------------------------------------------

TEST(TraceInvariants, SingleCommandPerMethodPassesStrictCheck) {
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kSgl,
        TransferMethod::kByteExpress, TransferMethod::kByteExpressOoo,
        TransferMethod::kBandSlim, TransferMethod::kHybrid}) {
    auto config = test::small_testbed_config();
    Testbed bed(config);
    for (const std::uint32_t size : {1u, 64u, 130u, 2048u}) {
      auto completion = bed.raw_write(patterned(size), method);
      ASSERT_TRUE(completion.is_ok() && completion->ok());
    }
    const std::vector<TraceEvent> events = bed.trace().snapshot();
    TraceCheckOptions options;
    options.queue_depth = config.driver.io_queue_depth;
    const TraceCheckResult result =
        obs::check_trace_invariants(events, options);
    EXPECT_TRUE(result.ok()) << diagnose(result, events);
    EXPECT_GT(result.submits, 0u);
    EXPECT_EQ(result.submits, result.completions);
  }
}

// The deterministic cooperative stress schedules (the PR-1 harness) keep
// every invariant across mixed methods, queues and submitters.
TEST(TraceInvariants, CooperativeStressSchedulesPass) {
  for (const std::uint64_t seed : {0x5eedull, 7ull, 99ull}) {
    core::StressOptions options;
    options.seed = seed;
    options.submitters = 8;
    options.io_queues = 4;
    options.rounds = 4;
    options.ops_per_round = 24;
    options.capture_trace = true;
    const core::StressResult stress = core::run_stress(options);
    ASSERT_TRUE(stress.ok()) << stress.failure;
    ASSERT_FALSE(stress.trace_events.empty());

    TraceCheckOptions check;
    check.queue_depth = options.queue_depth;
    const TraceCheckResult result =
        obs::check_trace_invariants(stress.trace_events, check);
    EXPECT_TRUE(result.ok()) << "seed " << seed << "\n"
                             << diagnose(result, stress.trace_events);
    // The trace also holds the init-time admin traffic: one CQ-create,
    // one SQ-create, and one inline-read-ring advertise per I/O queue on
    // top of the harness's own ops.
    const std::uint64_t setup_cmds = 3ull * options.io_queues;
    EXPECT_EQ(result.submits, stress.ops_submitted + setup_cmds)
        << "seed " << seed;
    EXPECT_EQ(result.completions, stress.ops_completed + setup_cmds)
        << "seed " << seed;
  }
}

// The same schedule shape under real OS threads (the TSan configuration):
// the clock and the trace seq are sampled separately, so monotonicity is
// off and the documented submit/completion race is tolerated — all the
// structural invariants still hold.
TEST(TraceInvariants, OsThreadStressSchedulesPass) {
  core::StressOptions options;
  options.submitters = 8;
  options.io_queues = 4;
  options.rounds = 4;
  options.ops_per_round = 24;
  options.use_os_threads = true;
  options.capture_trace = true;
  const core::StressResult stress = core::run_stress(options);
  ASSERT_TRUE(stress.ok()) << stress.failure;
  ASSERT_FALSE(stress.trace_events.empty());

  TraceCheckOptions check;
  check.queue_depth = options.queue_depth;
  check.require_monotonic = false;
  check.allow_submit_completion_race = true;
  const TraceCheckResult result =
      obs::check_trace_invariants(stress.trace_events, check);
  EXPECT_TRUE(result.ok()) << diagnose(result, stress.trace_events);
  const std::uint64_t setup_cmds = 3ull * options.io_queues;
  EXPECT_EQ(result.submits, stress.ops_submitted + setup_cmds);
  EXPECT_EQ(result.completions, stress.ops_completed + setup_cmds);
}

// ---------------------------------------------------------------------------
// Negative: corrupting a genuine trace trips the matching check. Each case
// starts from a real ByteExpress QD1 trace so only the injected defect can
// be responsible for the violation.
// ---------------------------------------------------------------------------

class CorruptedTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    auto config = test::small_testbed_config();
    depth_ = config.driver.io_queue_depth;
    Testbed bed(config);
    bed.reset_counters();
    auto completion =
        bed.raw_write(patterned(130), TransferMethod::kByteExpress);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    events_ = bed.trace().snapshot();
    ASSERT_FALSE(events_.empty());

    TraceCheckOptions options;
    options.queue_depth = depth_;
    const TraceCheckResult clean =
        obs::check_trace_invariants(events_, options);
    ASSERT_TRUE(clean.ok()) << diagnose(clean, events_);
  }

  [[nodiscard]] TraceCheckResult check() const {
    TraceCheckOptions options;
    options.queue_depth = depth_;
    return obs::check_trace_invariants(events_, options);
  }

  std::vector<TraceEvent>::iterator find_stage(TraceStage stage) {
    return std::find_if(
        events_.begin(), events_.end(),
        [&](const TraceEvent& e) { return e.stage == stage; });
  }

  std::vector<TraceEvent> events_;
  std::uint32_t depth_ = 0;
};

TEST_F(CorruptedTrace, DroppedDoorbellIsFetchBeyondPublished) {
  const auto doorbell = find_stage(TraceStage::kDoorbell);
  ASSERT_NE(doorbell, events_.end());
  events_.erase(doorbell);
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "beyond published doorbell tail"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, DuplicateCompletionIsCaught) {
  const auto completion = find_stage(TraceStage::kCompletion);
  ASSERT_NE(completion, events_.end());
  TraceEvent duplicate = *completion;
  duplicate.seq = events_.back().seq + 1;
  events_.push_back(duplicate);
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "completion without a matching"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, MissingCompletionIsCaught) {
  const auto completion = find_stage(TraceStage::kCompletion);
  ASSERT_NE(completion, events_.end());
  events_.erase(completion);
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "never completed"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, TeleportedChunkBreaksAdjacency) {
  const auto chunk = find_stage(TraceStage::kChunkFetch);
  ASSERT_NE(chunk, events_.end());
  chunk->slot = (chunk->slot + 2) % depth_;
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "not adjacent"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, RegressedTimestampIsCaught) {
  const auto exec = find_stage(TraceStage::kExec);
  ASSERT_NE(exec, events_.end());
  exec->start = 0;
  exec->end = 0;
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "regressed"))
      << diagnose(result, events_);
}

TEST_F(CorruptedTrace, TruncatedChunkBurstIsCaught) {
  // Drop everything from the last kChunkFetch onward: the burst never
  // finishes and the command never completes.
  auto last_chunk = events_.end();
  for (auto it = events_.begin(); it != events_.end(); ++it) {
    if (it->stage == TraceStage::kChunkFetch) last_chunk = it;
  }
  ASSERT_NE(last_chunk, events_.end());
  events_.erase(last_chunk, events_.end());
  const TraceCheckResult result = check();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "mid inline chunk burst"))
      << diagnose(result, events_);
}

// ---------------------------------------------------------------------------
// Reconciliation: the trace agrees with the rings' own counters — every
// published slot was doorbell-recorded and every reaped CQE was
// cq-doorbell-recorded, admin queue included.
// ---------------------------------------------------------------------------

TEST(TraceReconciliation, DoorbellsMatchRingCounters) {
  auto config = test::small_testbed_config();
  Testbed bed(config);  // trace on from construction; never cleared
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kByteExpress,
        TransferMethod::kBandSlim}) {
    auto completion = bed.raw_write(patterned(200), method);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  // One admin round trip on top of the init-time admin traffic.
  auto stats = bed.driver().get_transfer_stats();
  ASSERT_TRUE(stats.is_ok());

  const std::vector<TraceEvent> events = bed.trace().snapshot();
  for (std::uint16_t qid = 0; qid <= config.driver.io_queue_count; ++qid) {
    std::uint64_t published = 0;
    std::uint64_t cq_doorbells = 0;
    for (const TraceEvent& e : events) {
      if (e.qid != qid) continue;
      if (e.stage == TraceStage::kDoorbell) published += e.aux;
      if (e.stage == TraceStage::kCqDoorbell) ++cq_doorbells;
    }
    EXPECT_EQ(published, bed.driver().sq_for_test(qid).slots_pushed())
        << "qid " << qid;
    EXPECT_EQ(cq_doorbells, bed.driver().cq_for_test(qid).cqes_popped())
        << "qid " << qid;
  }
}

// ---------------------------------------------------------------------------
// The recorder itself: one ordered log under one lock.
// ---------------------------------------------------------------------------

// A full log keeps its first kCapacity events, in seq order, and counts the
// rest as dropped. clear() empties the log and the drop count, but seq
// keeps counting, so no number is ever handed out twice.
TEST(TraceRecorderLog, FullLogCountsDropsAndClearKeepsNumbering) {
  constexpr std::uint64_t kCapacity = obs::TraceRecorder::kCapacity;
  obs::TraceRecorder recorder;
  std::vector<TraceEvent> run(4096);
  // Runs up to two events short of capacity, then one run of five that
  // straddles it: two kept, three dropped.
  for (std::uint64_t left = kCapacity - 2; left > 0;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, run.size()));
    recorder.record_run({run.data(), n});
    left -= n;
  }
  recorder.record_run({run.data(), 5});

  const std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].seq, i);
  }
  EXPECT_EQ(recorder.dropped(), 3u);
  EXPECT_EQ(recorder.events_recorded(), kCapacity + 3);

  recorder.clear();
  EXPECT_EQ(recorder.dropped(), 0u);
  recorder.record(TraceEvent{});
  const std::vector<TraceEvent> after = recorder.snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.front().seq, kCapacity + 3);
}

// Four threads record at once, each on its own qid. A record numbers its
// run, adds it to the open command's report and appends it in one
// critical section, so the log's seqs rise by exactly 1 from event to
// event, each thread's events keep the order that thread recorded them
// in, and every finish_command returns exactly its own command's service.
TEST(TraceRecorderLog, ConcurrentRunsStayOrderedAndAttributed) {
  constexpr std::uint16_t kThreads = 4;
  constexpr std::uint16_t kCommands = 5'000;
  constexpr std::array<TraceStage, 5> kDeviceStages = {
      TraceStage::kSqeFetch, TraceStage::kChunkFetch, TraceStage::kPrpDma,
      TraceStage::kExec, TraceStage::kCompletion};
  obs::TraceRecorder recorder;
  std::array<std::uint64_t, kThreads> recorded{};
  std::array<std::uint64_t, kThreads> misattributed{};
  std::vector<std::thread> threads;
  for (std::uint16_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &kDeviceStages, &count = recorded[t],
                          &wrong = misattributed[t], t] {
      const auto qid = static_cast<std::uint16_t>(t + 1);
      Rng rng(0x7ace + t);
      Nanoseconds now = 0;
      for (std::uint16_t cid = 0; cid < kCommands; ++cid) {
        recorder.begin_command(qid, cid);
        std::array<TraceEvent, 3> run{};
        const auto n = static_cast<std::size_t>(rng.next_in(1, 3));
        std::uint64_t service = 0;
        for (std::size_t i = 0; i < n; ++i) {
          TraceEvent& event = run[i];
          event.stage = kDeviceStages[rng.next_below(kDeviceStages.size())];
          event.qid = qid;
          event.cid = cid;
          event.aux = count++;  // this thread's record order
          event.start = now;
          now += static_cast<Nanoseconds>(rng.next_in(1, 500));
          event.end = now;
          service += static_cast<std::uint64_t>(event.end - event.start);
        }
        recorder.record_run({run.data(), n});
        const obs::DeviceReport report = recorder.finish_command(qid, cid);
        if (!report.valid || report.service_ns != service) ++wrong;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<TraceEvent> events = recorder.snapshot();
  std::uint64_t total = 0;
  for (std::uint16_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(misattributed[t], 0u) << "thread " << t;
    total += recorded[t];
  }
  ASSERT_EQ(events.size(), total);
  std::array<std::uint64_t, kThreads> next{};
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].seq, i);
    ASSERT_GE(events[i].qid, 1u);
    ASSERT_LE(events[i].qid, kThreads);
    std::uint64_t& want = next[events[i].qid - 1];
    ASSERT_EQ(events[i].aux, want) << "qid " << events[i].qid;
    ++want;
  }
  EXPECT_EQ(next, recorded);
  EXPECT_EQ(recorder.dropped(), 0u);
}

}  // namespace
}  // namespace bx
