// Golden end-to-end traces: a fixed QD1 command must produce exactly the
// expected event sequence for each transfer method — stage, flags, queue,
// cid, aux and byte fields all match an expectation built from the wire
// format constants alone. A mismatch prints the full recorded trace.
//
// Also covers: byte-identical dumps across same-seed runs (determinism),
// the 0xC1 stage-stats log against trace-derived totals, and the named
// metrics registry against the device's own statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/stress.h"
#include "core/testbed.h"
#include "nvme/bandslim_wire.h"
#include "nvme/inline_read_wire.h"
#include "nvme/inline_wire.h"
#include "obs/trace.h"
#include "tenant/scheduler.h"
#include "tenant/tenant.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::IoRequest;
using driver::TransferMethod;
using obs::TraceEvent;
using obs::TraceStage;

constexpr std::uint32_t kPayloadBytes = 130;

ByteVec patterned(std::uint32_t size) {
  ByteVec payload(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    payload[i] = static_cast<Byte>(i * 3 + 5);
  }
  return payload;
}

struct ExpectedEvent {
  TraceStage stage = TraceStage::kSubmit;
  std::uint8_t flags = 0;
  std::uint16_t qid = 1;
  std::uint16_t cid = 0;
  std::uint64_t aux = 0;
  std::uint64_t bytes = 0;
};

std::string render(TraceStage stage, std::uint8_t flags, std::uint16_t qid,
                   std::uint16_t cid, std::uint64_t aux,
                   std::uint64_t bytes) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%-11s flags=%u q%u cid%u aux=%llu bytes=%llu\n",
                std::string(obs::stage_name(stage)).c_str(), flags, qid, cid,
                static_cast<unsigned long long>(aux),
                static_cast<unsigned long long>(bytes));
  return buf;
}

std::string render_actual(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) {
    out += render(e.stage, e.flags, e.qid, e.cid, e.aux, e.bytes);
  }
  return out;
}

std::string render_expected(const std::vector<ExpectedEvent>& events) {
  std::string out;
  for (const ExpectedEvent& e : events) {
    out += render(e.stage, e.flags, e.qid, e.cid, e.aux, e.bytes);
  }
  return out;
}

// The common tail every successful command ends with.
void push_tail(std::vector<ExpectedEvent>& ex, std::uint64_t payload_bytes) {
  ex.push_back({TraceStage::kExec, 0, 1, 0, 0, payload_bytes});
  ex.push_back({TraceStage::kCompletion, 0, 1, 0, 0, 0});
  ex.push_back({TraceStage::kCqDoorbell, 0, 1, 0, 0, 0});
}

std::vector<ExpectedEvent> expect_prp_like(TransferMethod method,
                                           TraceStage dma_stage,
                                           std::uint32_t size) {
  std::vector<ExpectedEvent> ex;
  ex.push_back({TraceStage::kDoorbell, 0, 1, 0, 1, 0});
  ex.push_back({TraceStage::kSubmit, 0, 1, 0,
                static_cast<std::uint64_t>(method), size});
  ex.push_back({TraceStage::kSqeFetch, 0, 1, 0, 0, 0});
  ex.push_back({dma_stage, 0, 1, 0, /*gather=*/0, size});
  push_tail(ex, size);
  return ex;
}

std::vector<ExpectedEvent> expect_byteexpress(std::uint32_t size) {
  namespace inw = nvme::inline_chunk;
  const std::uint32_t chunks = inw::raw_chunks_for(size);
  std::vector<ExpectedEvent> ex;
  ex.push_back({TraceStage::kDoorbell, 0, 1, 0, 1 + std::uint64_t{chunks},
                0});
  ex.push_back({TraceStage::kSubmit, 0, 1, 0,
                static_cast<std::uint64_t>(TransferMethod::kByteExpress),
                size});
  ex.push_back({TraceStage::kSqeFetch, 0, 1, 0, chunks, size});
  std::uint32_t remaining = size;
  for (std::uint32_t i = 0; i < chunks; ++i) {
    const std::uint32_t take =
        std::min<std::uint32_t>(inw::kRawChunkCapacity, remaining);
    ex.push_back({TraceStage::kChunkFetch, 0, 1, 0, i, take});
    remaining -= take;
  }
  push_tail(ex, size);
  return ex;
}

std::vector<ExpectedEvent> expect_byteexpress_ooo(std::uint32_t size) {
  namespace inw = nvme::inline_chunk;
  const std::uint32_t chunks = inw::ooo_chunks_for(size);
  std::vector<ExpectedEvent> ex;
  ex.push_back({TraceStage::kDoorbell, obs::kFlagOooCommand, 1, 0,
                1 + std::uint64_t{chunks}, 0});
  ex.push_back({TraceStage::kSubmit, obs::kFlagOooCommand, 1, 0,
                static_cast<std::uint64_t>(TransferMethod::kByteExpressOoo),
                size});
  ex.push_back({TraceStage::kSqeFetch, obs::kFlagOooCommand, 1, 0, 0, size});
  std::uint32_t remaining = size;
  for (std::uint32_t i = 0; i < chunks; ++i) {
    const std::uint32_t take =
        std::min<std::uint32_t>(inw::kOooChunkCapacity, remaining);
    ex.push_back({TraceStage::kChunkFetch, obs::kFlagOooChunk, 1, 0, i,
                  take});
    remaining -= take;
  }
  push_tail(ex, size);
  return ex;
}

std::vector<ExpectedEvent> expect_bandslim(std::uint32_t size) {
  namespace bsw = nvme::bandslim;
  const std::uint32_t embedded =
      std::min<std::uint32_t>(bsw::kFirstCmdCapacity, size);
  std::vector<std::uint32_t> fragments;
  for (std::uint32_t offset = embedded; offset < size;) {
    const std::uint32_t length =
        std::min<std::uint32_t>(bsw::kFragmentCapacity, size - offset);
    fragments.push_back(length);
    offset += length;
  }

  std::vector<ExpectedEvent> ex;
  // Host side: the header command, one serialized fragment command per
  // remaining piece, then the driver-level submit record.
  ex.push_back({TraceStage::kDoorbell, 0, 1, 0, 1, 0});
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    ex.push_back({TraceStage::kDoorbell, obs::kFlagAuxCommand, 1, 0, 1, 0});
  }
  ex.push_back({TraceStage::kSubmit, 0, 1, 0,
                static_cast<std::uint64_t>(TransferMethod::kBandSlim),
                size});
  // Device side: header fetch (+ stream-setup firmware when fragments
  // follow), per-fragment fetch + reassembly firmware, real execution.
  ex.push_back({TraceStage::kSqeFetch, 0, 1, 0, 0, 0});
  if (!fragments.empty()) {
    ex.push_back({TraceStage::kExec, obs::kFlagAuxCommand, 1, 0, 0, 0});
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      ex.push_back(
          {TraceStage::kSqeFetch, obs::kFlagAuxCommand, 1, 0, 0, 0});
      ex.push_back({TraceStage::kExec, obs::kFlagAuxCommand, 1, 0, i,
                    fragments[i]});
    }
  }
  push_tail(ex, size);
  return ex;
}

std::vector<TraceEvent> run_one(Testbed& bed, TransferMethod method,
                                const ByteVec& payload) {
  bed.reset_counters();
  auto completion = bed.raw_write(payload, method);
  EXPECT_TRUE(completion.is_ok() && completion->ok());
  return bed.trace().snapshot();
}

void expect_golden(TransferMethod method,
                   const std::vector<ExpectedEvent>& expected) {
  Testbed bed(test::small_testbed_config());
  const ByteVec payload = patterned(kPayloadBytes);
  const std::vector<TraceEvent> events = run_one(bed, method, payload);
  EXPECT_EQ(render_expected(expected), render_actual(events))
      << "full recorded trace:\n"
      << obs::TraceRecorder::dump(events);
}

TEST(GoldenTrace, Prp) {
  expect_golden(TransferMethod::kPrp,
                expect_prp_like(TransferMethod::kPrp, TraceStage::kPrpDma,
                                kPayloadBytes));
}

TEST(GoldenTrace, Sgl) {
  expect_golden(TransferMethod::kSgl,
                expect_prp_like(TransferMethod::kSgl, TraceStage::kSglDma,
                                kPayloadBytes));
}

TEST(GoldenTrace, ByteExpress) {
  expect_golden(TransferMethod::kByteExpress,
                expect_byteexpress(kPayloadBytes));
}

TEST(GoldenTrace, ByteExpressOoo) {
  expect_golden(TransferMethod::kByteExpressOoo,
                expect_byteexpress_ooo(kPayloadBytes));
}

TEST(GoldenTrace, BandSlim) {
  expect_golden(TransferMethod::kBandSlim, expect_bandslim(kPayloadBytes));
}

// ---- ByteExpress-R read-path goldens ------------------------------------

// Seeds the device scratch through queue 2, so the read under test is
// cid 0 on queue 1 and its trace is authored from the wire constants
// alone (reset_counters drops the seed write's events).
std::vector<TraceEvent> run_one_read(Testbed& bed, std::uint32_t size) {
  const ByteVec payload = patterned(size);
  auto seeded = bed.raw_write(payload, TransferMethod::kPrp, 2);
  EXPECT_TRUE(seeded.is_ok() && seeded->ok());
  bed.reset_counters();
  ByteVec out(size);
  IoRequest read;
  read.opcode = nvme::IoOpcode::kVendorRawRead;
  read.read_buffer = out;
  read.method = TransferMethod::kPrp;
  auto completion = bed.driver().execute(read, 1);
  EXPECT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_EQ(out, payload);
  return bed.trace().snapshot();
}

// An inline read is one device-side kReadChunkWrite burst between exec
// and the CQE: the payload leaves as chunk MWr TLPs into the completion
// ring, so no PRP/SGL DMA stage appears at all.
TEST(GoldenTrace, InlineRead) {
  namespace inr = nvme::inline_read;
  const std::uint32_t chunks = inr::read_chunks_for(kPayloadBytes);
  std::vector<ExpectedEvent> ex;
  ex.push_back({TraceStage::kDoorbell, 0, 1, 0, 1, 0});
  ex.push_back({TraceStage::kSubmit, 0, 1, 0,
                static_cast<std::uint64_t>(TransferMethod::kPrp), 0});
  ex.push_back({TraceStage::kSqeFetch, 0, 1, 0, 0, 0});
  ex.push_back({TraceStage::kExec, 0, 1, 0, 0, 0});
  ex.push_back({TraceStage::kReadChunkWrite, 0, 1, 0, chunks, kPayloadBytes});
  ex.push_back({TraceStage::kCompletion, 0, 1, 0, 0, 0});
  ex.push_back({TraceStage::kCqDoorbell, 0, 1, 0, 0, 0});

  Testbed bed(test::small_testbed_config(2));
  const std::vector<TraceEvent> events = run_one_read(bed, kPayloadBytes);
  EXPECT_EQ(render_expected(ex), render_actual(events))
      << "full recorded trace:\n"
      << obs::TraceRecorder::dump(events);
}

// With inline read completions off, the same read scatters through the
// PRP path instead: a kPrpDma stage (aux=1 marks scatter direction)
// replaces the chunk burst.
TEST(GoldenTrace, ReadPrpFallbackWhenInlineDisabled) {
  std::vector<ExpectedEvent> ex;
  ex.push_back({TraceStage::kDoorbell, 0, 1, 0, 1, 0});
  ex.push_back({TraceStage::kSubmit, 0, 1, 0,
                static_cast<std::uint64_t>(TransferMethod::kPrp), 0});
  ex.push_back({TraceStage::kSqeFetch, 0, 1, 0, 0, 0});
  ex.push_back({TraceStage::kExec, 0, 1, 0, 0, 0});
  ex.push_back({TraceStage::kPrpDma, 0, 1, 0, 1, kPayloadBytes});
  ex.push_back({TraceStage::kCompletion, 0, 1, 0, 0, 0});
  ex.push_back({TraceStage::kCqDoorbell, 0, 1, 0, 0, 0});

  core::TestbedConfig config = test::small_testbed_config(2);
  config.driver.inline_read_enabled = false;
  Testbed bed(config);
  const std::vector<TraceEvent> events = run_one_read(bed, kPayloadBytes);
  EXPECT_EQ(render_expected(ex), render_actual(events))
      << "full recorded trace:\n"
      << obs::TraceRecorder::dump(events);
}

// A header-only BandSlim put (payload fits the 24 embedded bytes) must
// not emit any fragment or stream-setup events.
TEST(GoldenTrace, BandSlimHeaderOnly) {
  Testbed bed(test::small_testbed_config());
  const ByteVec payload = patterned(nvme::bandslim::kFirstCmdCapacity);
  const std::vector<TraceEvent> events =
      run_one(bed, TransferMethod::kBandSlim, payload);
  EXPECT_EQ(render_expected(expect_bandslim(payload.size())),
            render_actual(events))
      << "full recorded trace:\n"
      << obs::TraceRecorder::dump(events);
}

// Determinism: two fresh testbeds running the identical scenario produce
// byte-identical trace dumps — seq numbers and sim-clock timestamps
// included, admin setup traffic included.
TEST(GoldenTrace, SameScenarioIsByteIdentical) {
  const auto run = [] {
    Testbed bed(test::small_testbed_config());
    const ByteVec payload = patterned(kPayloadBytes);
    for (const TransferMethod method :
         {TransferMethod::kPrp, TransferMethod::kSgl,
          TransferMethod::kByteExpress, TransferMethod::kByteExpressOoo,
          TransferMethod::kBandSlim}) {
      auto completion = bed.raw_write(payload, method);
      EXPECT_TRUE(completion.is_ok() && completion->ok());
    }
    IoRequest striped;
    striped.opcode = nvme::IoOpcode::kVendorRawWrite;
    striped.write_data = payload;
    auto completion = bed.driver().execute_ooo_striped(striped, {1, 2});
    EXPECT_TRUE(completion.is_ok() && completion->ok());
    // One inline read so the device-to-host chunk stage is part of the
    // determinism contract too.
    ByteVec out(kPayloadBytes);
    IoRequest read;
    read.opcode = nvme::IoOpcode::kVendorRawRead;
    read.read_buffer = out;
    auto reread = bed.driver().execute(read, 1);
    EXPECT_TRUE(reread.is_ok() && reread->ok());
    return obs::TraceRecorder::dump(bed.trace().snapshot());
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Per-tenant trace attribution is part of the golden dump format: submit
// events record the owning tenant in the `ten` column, untenanted events
// read ten0, and the whole tenant-tagged dump is byte-identical across
// same-seed runs.
TEST(GoldenTrace, TenantTagsSurviveDumpByteIdentically) {
  const auto run = [] {
    core::TestbedConfig config = test::small_testbed_config(2);
    Testbed bed(config);
    tenant::SchedulerConfig sched_config;
    tenant::TenantConfig t1;
    t1.id = 1;
    t1.hw_qid = 1;
    tenant::TenantConfig t2;
    t2.id = 2;
    t2.hw_qid = 2;
    sched_config.tenants = {t1, t2};
    tenant::TenantScheduler sched(bed, sched_config);
    // Drop the admin-setup trace so only the tenant I/O below remains.
    bed.reset_counters();
    const ByteVec payload = patterned(kPayloadBytes);
    for (int i = 0; i < 2; ++i) {
      for (const std::uint16_t tenant : {1, 2}) {
        auto completion = sched.execute_write(
            tenant, ConstByteSpan(payload), TransferMethod::kByteExpress);
        EXPECT_TRUE(completion.is_ok() && completion->ok());
      }
    }
    // One untenanted write: its submit must carry tenant 0, not inherit a
    // stale tag from the tenant commands around it.
    auto untenanted = bed.raw_write(payload, TransferMethod::kByteExpress);
    EXPECT_TRUE(untenanted.is_ok() && untenanted->ok());
    return bed.trace().snapshot();
  };

  const std::vector<TraceEvent> events = run();
  int submits_t1 = 0;
  int submits_t2 = 0;
  int submits_untenanted = 0;
  for (const TraceEvent& event : events) {
    if (event.stage != TraceStage::kSubmit) continue;
    if (event.tenant == 1) ++submits_t1;
    if (event.tenant == 2) ++submits_t2;
    if (event.tenant == 0) ++submits_untenanted;
  }
  EXPECT_EQ(submits_t1, 2);
  EXPECT_EQ(submits_t2, 2);
  EXPECT_EQ(submits_untenanted, 1);
  // The dump renders the tags (the `ten` column) and is deterministic.
  const std::string dump = obs::TraceRecorder::dump(events);
  EXPECT_NE(dump.find("ten1"), std::string::npos);
  EXPECT_NE(dump.find("ten2"), std::string::npos);
  EXPECT_EQ(dump, obs::TraceRecorder::dump(run()));
}

TEST(GoldenTrace, CooperativeStressTraceIsDeterministic) {
  core::StressOptions options;
  options.rounds = 2;
  options.ops_per_round = 12;
  options.capture_trace = true;
  const core::StressResult first = core::run_stress(options);
  const core::StressResult second = core::run_stress(options);
  ASSERT_TRUE(first.ok()) << first.failure;
  ASSERT_TRUE(second.ok()) << second.failure;
  EXPECT_FALSE(first.trace_events.empty());
  EXPECT_EQ(obs::TraceRecorder::dump(first.trace_events),
            obs::TraceRecorder::dump(second.trace_events));
}

// The 0xC1 stage-stats log is the always-on aggregate of the same device
// -side intervals the tracer records: totals must match the trace exactly,
// and the Get Log Page round trip must serve the same bytes.
TEST(StageStatsLog, MatchesTraceDerivedTotals) {
  Testbed bed(test::small_testbed_config());
  // Only admin traffic so far, which the I/O-queue-only log excludes.
  EXPECT_EQ(bed.controller().stage_stats().sqe_fetch.count, 0u);
  EXPECT_EQ(bed.controller().stage_stats().completion.count, 0u);

  const ByteVec payload = patterned(kPayloadBytes);
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kSgl,
        TransferMethod::kByteExpress, TransferMethod::kByteExpressOoo,
        TransferMethod::kBandSlim}) {
    auto completion = bed.raw_write(payload, method);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }

  nvme::StageStatsLog expected;
  for (const TraceEvent& e : bed.trace().snapshot()) {
    if (e.qid == 0) continue;
    nvme::StageStatsLog::Entry* entry = nullptr;
    switch (e.stage) {
      case TraceStage::kSqeFetch: entry = &expected.sqe_fetch; break;
      case TraceStage::kChunkFetch: entry = &expected.chunk_fetch; break;
      case TraceStage::kPrpDma: entry = &expected.prp_dma; break;
      case TraceStage::kSglDma: entry = &expected.sgl_dma; break;
      case TraceStage::kExec: entry = &expected.exec; break;
      case TraceStage::kCompletion: entry = &expected.completion; break;
      default: break;
    }
    if (entry == nullptr) continue;
    ++entry->count;
    entry->total_ns += static_cast<std::uint64_t>(e.end - e.start);
  }

  const auto check = [](const nvme::StageStatsLog::Entry& got,
                        const nvme::StageStatsLog::Entry& want,
                        const char* name) {
    EXPECT_EQ(got.count, want.count) << name;
    EXPECT_EQ(got.total_ns, want.total_ns) << name;
  };
  const nvme::StageStatsLog& live = bed.controller().stage_stats();
  check(live.sqe_fetch, expected.sqe_fetch, "sqe_fetch");
  check(live.chunk_fetch, expected.chunk_fetch, "chunk_fetch");
  check(live.prp_dma, expected.prp_dma, "prp_dma");
  check(live.sgl_dma, expected.sgl_dma, "sgl_dma");
  check(live.exec, expected.exec, "exec");
  check(live.completion, expected.completion, "completion");

  // Round trip through the admin path: Get Log Page 0xC1 serves the same
  // aggregates (the admin read itself is excluded from the log).
  auto fetched = bed.driver().get_stage_stats();
  ASSERT_TRUE(fetched.is_ok()) << fetched.status().to_string();
  check(fetched->sqe_fetch, live.sqe_fetch, "log sqe_fetch");
  check(fetched->chunk_fetch, live.chunk_fetch, "log chunk_fetch");
  check(fetched->prp_dma, live.prp_dma, "log prp_dma");
  check(fetched->sgl_dma, live.sgl_dma, "log sgl_dma");
  check(fetched->exec, live.exec, "log exec");
  check(fetched->completion, live.completion, "log completion");
}

// The stage log (and the metrics registry) stay live with tracing turned
// off at runtime; the trace buffer stays empty.
TEST(StageStatsLog, AccumulatesWithTracingDisabled) {
  auto config = test::small_testbed_config();
  config.trace_enabled = false;
  Testbed bed(config);
  const ByteVec payload = patterned(kPayloadBytes);
  auto completion = bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_TRUE(bed.trace().snapshot().empty());
  EXPECT_EQ(bed.controller().stage_stats().sqe_fetch.count, 1u);
  EXPECT_EQ(bed.controller().stage_stats().completion.count, 1u);
  EXPECT_EQ(bed.metrics().counter_value("ctrl.completions_posted"),
            bed.controller().transfer_stats().completions_posted);
}

// The metrics registry exposes the same live counters the vendor log
// pages serve, plus link- and driver-side counters.
TEST(MetricsRegistry, MirrorsDeviceAndLinkCounters) {
  Testbed bed(test::small_testbed_config());
  const ByteVec payload = patterned(kPayloadBytes);
  const int kOps = 4;
  for (int i = 0; i < kOps; ++i) {
    auto completion = bed.raw_write(payload, TransferMethod::kByteExpress);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  const nvme::TransferStatsLog stats = bed.controller().transfer_stats();
  obs::MetricsRegistry& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("ctrl.commands_processed"),
            stats.commands_processed);
  EXPECT_EQ(metrics.counter_value("ctrl.chunks_fetched"),
            stats.inline_chunks_fetched);
  EXPECT_EQ(metrics.counter_value("ctrl.completions_posted"),
            stats.completions_posted);
  EXPECT_EQ(metrics.counter_value("driver.submissions"),
            static_cast<std::uint64_t>(kOps));
  // Never reset since construction, so the metric matches the counter.
  EXPECT_EQ(metrics.counter_value("pcie.wire_bytes"),
            bed.traffic().total_wire_bytes());
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"ctrl.commands_processed\""), std::string::npos);
  EXPECT_NE(json.find("\"driver.submit_cost_ns\""), std::string::npos);
}

// The pcie.* metrics are the traffic counter's totals, so a
// reset_counters() re-baselines both views at once.
TEST(MetricsRegistry, PcieMetricsFollowTrafficCounterReset) {
  Testbed bed(test::small_testbed_config());
  auto prp = bed.raw_write(patterned(kPayloadBytes), TransferMethod::kPrp);
  ASSERT_TRUE(prp.is_ok() && prp->ok());
  bed.reset_counters();
  auto inline_write =
      bed.raw_write(patterned(256), TransferMethod::kByteExpress);
  ASSERT_TRUE(inline_write.is_ok() && inline_write->ok());
  const pcie::TrafficCell total = bed.traffic().total();
  const obs::MetricsRegistry& metrics = bed.metrics();
  EXPECT_GT(total.tlps, 0u);
  EXPECT_EQ(metrics.counter_value("pcie.wire_bytes"), total.wire_bytes);
  EXPECT_EQ(metrics.counter_value("pcie.tlps"), total.tlps);
  EXPECT_EQ(metrics.counter_value("pcie.data_bytes"), total.data_bytes);
}

}  // namespace
}  // namespace bx
