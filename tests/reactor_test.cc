// Deterministic tests for the sharded reactor host path: the MPSC
// cross-core handoff ring (FIFO per producer, no loss, no duplication,
// never blocks on a mid-fill cell) and the Reactor event loop (batched
// drain, callback ordering, graceful shutdown drain, one reactor per
// queue). The multi-producer cases run real OS threads and double as
// ThreadSanitizer targets: the CI TSan job runs this binary with
// -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <random>
#include <thread>
#include <vector>

#include "core/testbed.h"
#include "driver/mpsc_ring.h"
#include "driver/reactor.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::MpscRing;
using driver::Reactor;
using driver::ReactorConfig;

// ------------------------------------------------------------- MPSC ring

TEST(MpscRingTest, FifoSingleThread) {
  MpscRing<int> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99)) << "ring must reject when full";
  EXPECT_EQ(ring.occupancy(), 8u);
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i) << "single-producer pops must be FIFO";
  }
  EXPECT_FALSE(ring.try_pop(out)) << "empty ring must report empty";
  EXPECT_EQ(ring.occupancy(), 0u);
}

TEST(MpscRingTest, WrapsAroundManyTimes) {
  MpscRing<std::uint64_t> ring(4);
  std::uint64_t next_pop = 0;
  std::uint64_t next_push = 0;
  // Push/pop through many capacity multiples so sequence numbers wrap the
  // ring index repeatedly.
  for (int cycle = 0; cycle < 1000; ++cycle) {
    while (ring.try_push(next_push)) ++next_push;
    std::uint64_t out = 0;
    while (ring.try_pop(out)) {
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_pop, next_push);
}

// Property check against a reference model: for every seeded random
// push/pop interleaving, try_push succeeds iff the ring holds fewer than
// `capacity` elements, try_pop succeeds iff it is non-empty, and the pop
// order is exactly the push order. Small capacities force the sequence
// numbers across the wraparound boundary thousands of times.
TEST(MpscRingTest, PropertyRandomizedAgainstReferenceModel) {
  for (const std::size_t capacity : {2ul, 4ul, 16ul}) {
    for (const std::uint64_t seed : {7ull, 0xfeedull, 0x5ca1ab1eull}) {
      MpscRing<std::uint64_t> ring(capacity);
      std::deque<std::uint64_t> model;
      std::mt19937_64 rng(seed);
      std::uint64_t next_value = 0;
      for (int step = 0; step < 20000; ++step) {
        if (rng() & 1) {
          const bool pushed = ring.try_push(next_value);
          ASSERT_EQ(pushed, model.size() < capacity)
              << "capacity " << capacity << " seed " << seed << " step "
              << step << ": push admission must track occupancy exactly";
          if (pushed) model.push_back(next_value++);
        } else {
          std::uint64_t out = 0;
          const bool popped = ring.try_pop(out);
          ASSERT_EQ(popped, !model.empty())
              << "capacity " << capacity << " seed " << seed << " step "
              << step << ": pop must succeed iff non-empty";
          if (popped) {
            ASSERT_EQ(out, model.front()) << "FIFO violated";
            model.pop_front();
          }
        }
        ASSERT_EQ(ring.occupancy(), model.size());
      }
    }
  }
}

// The sequence-number ABA hazard lives at the full-ring boundary: a cell
// re-used `capacity` tickets later must present a *different* sequence
// value to a producer still holding the old ticket, or a stale push
// would overwrite a live element. Oscillate a capacity-2 ring between
// full and empty for many thousands of cycles so head/tail run far past
// several index wraps, asserting rejection-at-full and exact element
// identity throughout.
TEST(MpscRingTest, FullBoundaryRejectionSurvivesSequenceWraps) {
  MpscRing<std::uint64_t> ring(2);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  for (int cycle = 0; cycle < 50000; ++cycle) {
    ASSERT_TRUE(ring.try_push(pushed));
    ++pushed;
    ASSERT_TRUE(ring.try_push(pushed));
    ++pushed;
    // Full: the next ticket's cell still holds the element from
    // `capacity` tickets ago and must refuse, not recycle (ABA).
    ASSERT_FALSE(ring.try_push(0xdeadu));
    ASSERT_EQ(ring.occupancy(), 2u);
    std::uint64_t out = 0;
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, popped++);
    // One free slot: exactly one push fits again.
    ASSERT_TRUE(ring.try_push(pushed));
    ++pushed;
    ASSERT_FALSE(ring.try_push(0xdeadu));
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, popped++);
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, popped++);
    ASSERT_FALSE(ring.try_pop(out)) << "empty after draining the cycle";
  }
  EXPECT_EQ(pushed, popped);
}

struct Tagged {
  std::uint16_t producer = 0;
  std::uint32_t seq = 0;
};

// No loss, no duplication, FIFO per producer — under a seeded sweep of
// real multi-producer interleavings against one consumer.
TEST(MpscRingTest, MultiProducerNoLossNoDupFifoPerProducer) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xabcdull}) {
    constexpr std::uint16_t kProducers = 4;
    constexpr std::uint32_t kPerProducer = 5000;
    MpscRing<Tagged> ring(64);
    std::atomic<bool> done{false};
    std::vector<std::vector<std::uint32_t>> seen(kProducers);

    std::thread consumer([&] {
      Tagged item;
      for (;;) {
        if (ring.try_pop(item)) {
          seen[item.producer].push_back(item.seq);
        } else if (done.load(std::memory_order_acquire) &&
                   ring.occupancy() == 0) {
          // One final drain: occupancy may have raced a last push.
          while (ring.try_pop(item)) seen[item.producer].push_back(item.seq);
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });

    std::vector<std::thread> producers;
    for (std::uint16_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        // Seeded per-producer pacing varies the interleaving per run.
        std::mt19937_64 rng(seed ^ (p * 0x9e3779b97f4a7c15ull));
        for (std::uint32_t i = 0; i < kPerProducer; ++i) {
          Tagged item{p, i};
          while (!ring.try_push(item)) std::this_thread::yield();
          if ((rng() & 0xff) == 0) std::this_thread::yield();
        }
      });
    }
    for (auto& thread : producers) thread.join();
    done.store(true, std::memory_order_release);
    consumer.join();

    for (std::uint16_t p = 0; p < kProducers; ++p) {
      ASSERT_EQ(seen[p].size(), kPerProducer)
          << "seed " << seed << ": producer " << p << " lost/duped items";
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(seen[p][i], i)
            << "seed " << seed << ": producer " << p << " not FIFO at " << i;
      }
    }
  }
}

// --------------------------------------------------------------- Reactor

driver::IoRequest inline_write(const ByteVec& payload) {
  driver::IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.method = driver::TransferMethod::kByteExpress;
  request.write_data = {payload.data(), payload.size()};
  return request;
}

TEST(ReactorTest, PostPollDeliversCompletionsInPostOrder) {
  Testbed bed(test::small_testbed_config());
  ReactorConfig config;
  config.qid = 1;
  config.batch_depth = 8;
  Reactor reactor(bed.driver(), config);

  const ByteVec payload(200, Byte{0x5a});
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(reactor.post(
        inline_write(payload),
        [&order, i](const StatusOr<driver::Completion>& completion) {
          ASSERT_TRUE(completion.is_ok());
          EXPECT_TRUE(completion->ok());
          order.push_back(i);
        }));
  }
  EXPECT_EQ(reactor.ring_occupancy(), 5u);
  EXPECT_EQ(reactor.poll_once(), 5u);
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);

  const driver::ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.posted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

TEST(ReactorTest, BatchDepthCapsEachDrain) {
  Testbed bed(test::small_testbed_config());
  ReactorConfig config;
  config.batch_depth = 4;
  Reactor reactor(bed.driver(), config);

  const ByteVec payload(64, Byte{0x11});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(reactor.post(inline_write(payload), {}));
  }
  EXPECT_EQ(reactor.poll_once(), 4u);
  EXPECT_EQ(reactor.poll_once(), 4u);
  EXPECT_EQ(reactor.poll_once(), 2u);
  EXPECT_EQ(reactor.poll_once(), 0u);
  EXPECT_EQ(reactor.stats().batches, 3u);
}

TEST(ReactorTest, OneDoorbellPerDrainedBatch) {
  Testbed bed(test::small_testbed_config());
  ReactorConfig config;
  config.batch_depth = 8;
  Reactor reactor(bed.driver(), config);

  const ByteVec payload(150, Byte{0x3c});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(reactor.post(inline_write(payload), {}));
  }
  const std::uint64_t bells_before = bed.bar().sq_doorbell_writes(1);
  EXPECT_EQ(reactor.poll_once(), 8u);
  // Eight cross-core posts became one SQE+chunk run under ONE doorbell
  // MWr — the coalescing the reactor model exists to produce.
  EXPECT_EQ(bed.bar().sq_doorbell_writes(1) - bells_before, 1u);
}

TEST(ReactorTest, GracefulDrainOnStop) {
  Testbed bed(test::small_testbed_config());
  ReactorConfig config;
  config.batch_depth = 4;
  Reactor reactor(bed.driver(), config);

  const ByteVec payload(90, Byte{0x77});
  std::atomic<int> completed{0};
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(reactor.post(
        inline_write(payload),
        [&completed](const StatusOr<driver::Completion>&) { ++completed; }));
  }
  reactor.stop();
  // run() must drain everything already posted before returning.
  reactor.run();
  EXPECT_EQ(completed.load(), 9);
  EXPECT_FALSE(reactor.post(inline_write(payload), {}))
      << "post after stop must be rejected";
  EXPECT_EQ(reactor.stats().rejected, 1u);
}

TEST(ReactorTest, CrossThreadProducersAllCompleteFifoPerProducer) {
  Testbed bed(test::small_testbed_config());
  ReactorConfig config;
  config.qid = 1;
  config.ring_capacity = 64;
  config.batch_depth = 8;
  Reactor reactor(bed.driver(), config);
  obs::MetricsRegistry metrics;
  reactor.bind_metrics(metrics, "reactor.q1");

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  // Callbacks run on the reactor thread only, so plain vectors are safe;
  // the joins below publish them to the main thread.
  std::vector<std::vector<int>> delivered(kProducers);

  std::thread owner([&] { reactor.run(); });

  std::vector<std::thread> producers;
  std::vector<ByteVec> payloads(kProducers, ByteVec(120, Byte{0x42}));
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto callback =
            [&delivered, p, i](const StatusOr<driver::Completion>& completion) {
              ASSERT_TRUE(completion.is_ok());
              EXPECT_TRUE(completion->ok());
              delivered[p].push_back(i);
            };
        while (!reactor.post(inline_write(payloads[p]), callback)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : producers) thread.join();
  reactor.stop();
  owner.join();

  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(delivered[p].size(), static_cast<std::size_t>(kPerProducer));
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(delivered[p][i], i)
          << "producer " << p << " completions out of FIFO order";
    }
  }
  const driver::ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.posted, static_cast<std::uint64_t>(kProducers) *
                              kPerProducer);
  EXPECT_EQ(stats.completed, stats.posted);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(metrics.counter_value("reactor.q1.completed"), stats.completed);
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

TEST(ReactorTest, TwoReactorsOwnDisjointQueues) {
  Testbed bed(test::small_testbed_config(2, 128));
  ReactorConfig first;
  first.qid = 1;
  ReactorConfig second;
  second.qid = 2;
  Reactor r1(bed.driver(), first);
  Reactor r2(bed.driver(), second);

  const ByteVec payload(256, Byte{0x9d});
  std::thread t1([&] { r1.run(); });
  std::thread t2([&] { r2.run(); });
  std::atomic<int> completed{0};
  const auto on_complete =
      [&completed](const StatusOr<driver::Completion>& completion) {
        if (completion.is_ok() && completion->ok()) ++completed;
      };
  for (int i = 0; i < 32; ++i) {
    while (!r1.post(inline_write(payload), on_complete)) {
      std::this_thread::yield();
    }
    while (!r2.post(inline_write(payload), on_complete)) {
      std::this_thread::yield();
    }
  }
  r1.stop();
  r2.stop();
  t1.join();
  t2.join();
  EXPECT_EQ(completed.load(), 64);
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
  EXPECT_EQ(bed.driver().pending_count_for_test(2), 0u);
}

}  // namespace
}  // namespace bx
