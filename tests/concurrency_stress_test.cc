// Multi-submitter host-path stress: seeded randomized submit/reap
// schedules over mixed inline/PRP/SGL/BandSlim payloads, checked against
// the four hard invariants (ring layout, one doorbell per inline
// submission, one completion per submission, traffic-byte conservation) —
// see src/core/stress.h. Also hammers the driver's atomic id allocators
// and cross-checks the vendor log page against the device's direct
// statistics.
//
// The OS-thread cases double as the ThreadSanitizer targets: the CI TSan
// job runs this binary with -fsanitize=thread.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/stress.h"
#include "core/testbed.h"
#include "kv/kv_client.h"
#include "test_util.h"

namespace bx {
namespace {

using core::StressOptions;
using core::StressResult;
using core::Testbed;

// ---------------------------------------------------------- id allocators

TEST(IdAllocatorTest, StreamIdsUniqueAcrossEightThreads) {
  Testbed bed(test::small_testbed_config());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;  // 16000 total, below the 16-bit wrap
  std::vector<std::vector<std::uint16_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        got[t].push_back(bed.driver().allocate_stream_id_for_test());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<std::uint16_t> unique;
  for (const auto& ids : got) {
    for (const std::uint16_t id : ids) {
      EXPECT_NE(id, 0) << "stream id 0 is reserved";
      EXPECT_TRUE(unique.insert(id).second) << "duplicate stream id " << id;
    }
  }
  EXPECT_EQ(unique.size(), std::size_t{kThreads} * kPerThread);
}

TEST(IdAllocatorTest, PayloadIdsUniqueAndInRangeAcrossEightThreads) {
  Testbed bed(test::small_testbed_config());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::vector<std::uint32_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        got[t].push_back(bed.driver().allocate_payload_id_for_test());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<std::uint32_t> unique;
  for (const auto& ids : got) {
    for (const std::uint32_t id : ids) {
      EXPECT_GE(id, 1u);
      EXPECT_LT(id, 0x80000000u) << "payload id must leave the OOO bit clear";
      EXPECT_TRUE(unique.insert(id).second) << "duplicate payload id " << id;
    }
  }
  EXPECT_EQ(unique.size(), std::size_t{kThreads} * kPerThread);
}

// -------------------------------------------------- cooperative schedules

TEST(ConcurrencyStressTest, CooperativeScheduleHoldsAllInvariants) {
  StressOptions options;  // 8 submitters x 4 queues, mixed methods
  const StressResult result = core::run_stress(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  EXPECT_GT(result.ops_submitted, 0u);
  EXPECT_EQ(result.ops_completed, result.ops_submitted);
  EXPECT_EQ(result.stats_delta.completions_posted, result.ops_completed);
}

TEST(ConcurrencyStressTest, ManySeedsHoldInvariants) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    StressOptions options;
    options.seed = seed;
    options.rounds = 3;
    const StressResult result = core::run_stress(options);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": " << result.failure;
  }
}

TEST(ConcurrencyStressTest, SameSeedReproducesIdenticalDeviceStats) {
  StressOptions options;
  options.seed = 0xfeed;
  const StressResult first = core::run_stress(options);
  const StressResult second = core::run_stress(options);
  ASSERT_TRUE(first.ok()) << first.failure;
  ASSERT_TRUE(second.ok()) << second.failure;

  // Byte-identical TransferStatsLog, timing field included — the whole
  // point of the cooperative deterministic scheduler.
  EXPECT_EQ(std::memcmp(&first.stats_delta, &second.stats_delta,
                        sizeof(first.stats_delta)),
            0);
  EXPECT_EQ(first.ops_submitted, second.ops_submitted);
  EXPECT_EQ(first.sq_doorbells, second.sq_doorbells);
  EXPECT_EQ(first.cq_doorbells, second.cq_doorbells);
  EXPECT_EQ(first.wire_bytes, second.wire_bytes);
}

TEST(ConcurrencyStressTest, DifferentSeedsProduceDifferentSchedules) {
  StressOptions a;
  a.seed = 7;
  StressOptions b;
  b.seed = 8;
  const StressResult first = core::run_stress(a);
  const StressResult second = core::run_stress(b);
  ASSERT_TRUE(first.ok()) << first.failure;
  ASSERT_TRUE(second.ok()) << second.failure;
  // Not a hard guarantee for every seed pair, but these seeds draw
  // different op mixes; identical wire totals would mean the seed is
  // being ignored.
  EXPECT_NE(first.wire_bytes, second.wire_bytes);
}

// ------------------------------------------------------- OS-thread mode

TEST(ConcurrencyStressTest, EightThreadsFourQueuesUnderRealThreads) {
  StressOptions options;
  options.use_os_threads = true;
  options.submitters = 8;
  options.io_queues = 4;
  options.rounds = 4;
  const StressResult result = core::run_stress(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  EXPECT_EQ(result.ops_completed, result.ops_submitted);
}

TEST(ConcurrencyStressTest, ThreadsOnSharedQueueContend) {
  // All submitters hammer a single queue — maximum SQ-lock contention.
  StressOptions options;
  options.use_os_threads = true;
  options.submitters = 8;
  options.io_queues = 1;
  options.rounds = 4;
  const StressResult result = core::run_stress(options);
  ASSERT_TRUE(result.ok()) << result.failure;
}

// -------------------------------------------- stats log vs direct access

TEST(ConcurrencyStressTest, LogPageMatchesDirectStats) {
  Testbed bed(test::small_testbed_config());
  const ByteVec payload(300, Byte{0xab});
  for (const auto method :
       {driver::TransferMethod::kPrp, driver::TransferMethod::kSgl,
        driver::TransferMethod::kByteExpress,
        driver::TransferMethod::kBandSlim}) {
    auto completion = bed.raw_write(payload, method);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }

  auto log = bed.driver().get_transfer_stats();
  ASSERT_TRUE(log.is_ok());
  const nvme::TransferStatsLog direct = bed.controller().transfer_stats();

  // The GetLogPage admin command snapshots the stats while it is itself
  // being processed, so the direct read afterwards sees exactly one more
  // processed command and one more posted completion.
  EXPECT_EQ(direct.commands_processed, log->commands_processed + 1);
  EXPECT_EQ(direct.completions_posted, log->completions_posted + 1);
  EXPECT_EQ(direct.inline_chunks_fetched, log->inline_chunks_fetched);
  EXPECT_EQ(direct.bandslim_fragments, log->bandslim_fragments);
  EXPECT_EQ(direct.prp_transactions, log->prp_transactions);
  EXPECT_EQ(direct.sgl_transactions, log->sgl_transactions);
  EXPECT_EQ(direct.ooo_payloads_reassembled, log->ooo_payloads_reassembled);
}

// ----------------------------------------------- raw concurrent executes

TEST(ConcurrencyStressTest, ConcurrentExecutesAcrossQueuesAllComplete) {
  // Direct driver-level hammer without the harness: 8 threads x 32
  // synchronous executes over 4 queues and every method. Exercises the
  // wait() poll/pump loop under contention.
  core::TestbedConfig config = test::small_testbed_config(4, 128);
  Testbed bed(config);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const driver::TransferMethod methods[] = {
          driver::TransferMethod::kPrp, driver::TransferMethod::kSgl,
          driver::TransferMethod::kByteExpress,
          driver::TransferMethod::kBandSlim};
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ByteVec payload(
            1 + (static_cast<std::size_t>(t) * 131 + i * 17) % 1500,
            static_cast<Byte>(t * 16 + i));
        const auto qid = static_cast<std::uint16_t>(1 + (t + i) % 4);
        auto completion =
            bed.raw_write(payload, methods[(t + i) % 4], qid);
        if (!completion.is_ok() || !completion->ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (std::uint16_t qid = 1; qid <= 4; ++qid) {
    EXPECT_EQ(bed.driver().pending_count_for_test(qid), 0u);
  }
}

TEST(ConcurrencyStressTest, TwoWaitersPerQueueNeverTimeOut) {
  // Two threads wait on each of 4 queues, so each reap can pop the other
  // waiter's CQE. A reap marks what it popped done before it releases
  // cq_mutex: the other waiter either finds its command done or blocks
  // on the reap, and never spins idle (advancing the sim clock toward the
  // 50 ms default timeout) on a command already taken off the CQ.
  Testbed bed(test::small_testbed_config(4, 128));
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto qid = static_cast<std::uint16_t>(1 + t % 4);
      const ByteVec payload(64, static_cast<Byte>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto completion = bed.raw_write(
            payload, driver::TransferMethod::kByteExpress, qid);
        if (!completion.is_ok() || !completion->ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bed.metrics().counter_value("driver.timeouts"), 0u);
  EXPECT_EQ(bed.metrics().counter_value("driver.aborts_sent"), 0u);
  EXPECT_EQ(bed.metrics().counter_value("driver.retries"), 0u);
  for (std::uint16_t qid = 1; qid <= 4; ++qid) {
    EXPECT_EQ(bed.driver().pending_count_for_test(qid), 0u);
  }
}

// ------------------------------------- mixed-direction inline stress

// Deterministic value for (thread, key) so concurrent readers can verify
// payloads byte-exactly regardless of interleaving.
ByteVec value_for(int t, int k) {
  const std::size_t len =
      1 + (static_cast<std::size_t>(t) * 211 + static_cast<std::size_t>(k) * 37) % 1500;
  ByteVec value(len);
  for (std::size_t b = 0; b < len; ++b) {
    value[b] = static_cast<Byte>(t * 31 + k * 7 + b);
  }
  return value;
}

TEST(ConcurrencyStressTest, MixedInlineReadWriteThreadsVerifyPayloads) {
  // ByteExpress-R under contention: 8 threads over 4 queues, each
  // alternating inline KV puts (host-to-device inline chunks) with gets
  // (device-to-host completion-ring chunks), then re-reading its whole
  // key set while the other threads are still writing. Every value is a
  // pure function of (thread, key), so each get verifies byte-exactly.
  Testbed bed(test::small_testbed_config(4, 128));
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = bed.make_kv_client(driver::TransferMethod::kByteExpress,
                                       static_cast<std::uint16_t>(1 + t % 4));
      for (int k = 0; k < kKeysPerThread; ++k) {
        const std::string key = "t" + std::to_string(t) + "k" + std::to_string(k);
        const ByteVec value = value_for(t, k);
        if (!client.put(key, ConstByteSpan(value)).is_ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto got = client.get(key);
        if (!got.is_ok() || *got != value) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Second pass: re-read everything this thread wrote while the
      // other threads keep the inline write path busy.
      for (int k = 0; k < kKeysPerThread; ++k) {
        const std::string key = "t" + std::to_string(t) + "k" + std::to_string(k);
        auto got = client.get(key);
        if (!got.is_ok() || *got != value_for(t, k)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // The gets actually rode the inline completion ring, and the host-side
  // CRC saw no corruption (the byte-exact compares above rule out
  // undetected corruption).
  EXPECT_GT(bed.metrics().counter_value("driver.inline_read.completions"), 0u);
  EXPECT_EQ(bed.metrics().counter_value("driver.inline_read.crc_errors"), 0u);
  for (std::uint16_t qid = 1; qid <= 4; ++qid) {
    EXPECT_EQ(bed.driver().pending_count_for_test(qid), 0u);
  }
}

TEST(ConcurrencyStressTest, ReadersAndWritersContendOnOneQueue) {
  // Maximum mixed-direction contention: one hardware queue shared by 4
  // reader threads (inline KV gets of a pre-populated key set) and 4
  // writer threads (inline raw-write flood). Readers and writers fight
  // over the same SQ lock, inline slot window and completion ring.
  Testbed bed(test::small_testbed_config(1, 128));
  constexpr int kKeys = 16;
  {
    auto seeder = bed.make_kv_client(driver::TransferMethod::kByteExpress);
    for (int k = 0; k < kKeys; ++k) {
      const ByteVec value = value_for(0, k);
      ASSERT_TRUE(seeder.put("key" + std::to_string(k), ConstByteSpan(value))
                      .is_ok());
    }
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {  // reader
      auto client = bed.make_kv_client(driver::TransferMethod::kByteExpress);
      for (int i = 0; i < 48; ++i) {
        const int k = (t * 7 + i) % kKeys;
        auto got = client.get("key" + std::to_string(k));
        if (!got.is_ok() || *got != value_for(0, k)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    threads.emplace_back([&, t] {  // writer
      for (int i = 0; i < 48; ++i) {
        const ByteVec payload(64 + (t * 113 + i * 29) % 1000,
                              static_cast<Byte>(t + i));
        auto completion =
            bed.raw_write(payload, driver::TransferMethod::kByteExpress);
        if (!completion.is_ok() || !completion->ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(bed.metrics().counter_value("driver.inline_read.completions"),
            0u);
  EXPECT_EQ(bed.metrics().counter_value("driver.inline_read.crc_errors"), 0u);
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

}  // namespace
}  // namespace bx
