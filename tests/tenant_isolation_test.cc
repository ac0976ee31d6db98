// Multi-tenant queue virtualization: admission control, WRR/urgent
// arbitration conformance, and the adversarially verified isolation
// sweep (see docs/TENANCY.md and src/tenant/isolation.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "controller/controller.h"
#include "core/testbed.h"
#include "driver/request.h"
#include "tenant/isolation.h"
#include "tenant/scheduler.h"
#include "tenant/tenant.h"
#include "tenant/vqueue.h"
#include "test_util.h"

namespace bx::tenant {
namespace {

using driver::TransferMethod;

// ---- TokenBucket ---------------------------------------------------------

TEST(TokenBucket, RefillsOnSimulatedTime) {
  TokenBucket bucket(/*rate_bytes_per_sec=*/1000, /*burst_bytes=*/100);
  // Starts full.
  EXPECT_EQ(bucket.available(0), 100u);
  EXPECT_TRUE(bucket.try_consume(100, 0));
  EXPECT_FALSE(bucket.try_consume(1, 0));
  // 1000 B/s = 1 byte per millisecond of sim-time.
  EXPECT_FALSE(bucket.try_consume(10, 9'000'000));   // 9 ms -> 9 bytes
  EXPECT_TRUE(bucket.try_consume(10, 10'000'000));   // 10 ms -> 10 bytes
  // Refill caps at the burst.
  EXPECT_EQ(bucket.available(10'000'000'000), 100u);
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(0, 0);
  EXPECT_TRUE(bucket.try_consume(1u << 30, 0));
}

TEST(TokenBucket, DeterministicAcrossRuns) {
  const auto run = [] {
    TokenBucket bucket(777, 4096);
    std::vector<bool> outcomes;
    for (std::uint64_t i = 0; i < 200; ++i) {
      outcomes.push_back(bucket.try_consume(97, i * 1'000'003));
    }
    return outcomes;
  };
  EXPECT_EQ(run(), run());
}

// ---- AdmissionController -------------------------------------------------

std::vector<TenantConfig> two_tenants() {
  TenantConfig a;
  a.id = 1;
  a.inline_slot_budget = 10;
  a.max_payload_bytes = 1024;
  TenantConfig b;
  b.id = 2;
  b.hw_qid = 2;
  b.rate_bytes_per_sec = 1000;
  b.burst_bytes = 512;
  return {a, b};
}

driver::IoRequest write_request(std::uint16_t tenant, ByteVec& payload,
                                std::size_t len) {
  payload.assign(len, Byte{0xab});
  driver::IoRequest request;
  request.tenant = tenant;
  request.write_data = ConstByteSpan(payload);
  return request;
}

TEST(AdmissionController, UntenantedBypassesUnknownRejected) {
  AdmissionController gate(two_tenants());
  ByteVec payload;
  auto untenanted = write_request(0, payload, 4096);
  EXPECT_TRUE(gate.admit(untenanted, 1, 0, 0).is_ok());
  auto unknown = write_request(7, payload, 16);
  EXPECT_EQ(gate.admit(unknown, 1, 0, 0).code(),
            StatusCode::kFailedPrecondition);
  // A wiring bug is not backpressure: nothing counted anywhere.
  EXPECT_EQ(gate.counters(1)->rejected.value(), 0u);
  EXPECT_EQ(gate.counters(2)->rejected.value(), 0u);
}

TEST(AdmissionController, EnforcesPayloadCapAndSlotBudget) {
  AdmissionController gate(two_tenants());
  ByteVec payload;
  // Oversized: rejected before any other budget is consulted.
  auto oversized = write_request(1, payload, 2048);
  EXPECT_EQ(gate.admit(oversized, 1, 4, 0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(gate.counters(1)->rejected.value(), 1u);
  // Inline-slot budget: 10 slots total.
  auto ok = write_request(1, payload, 512);
  EXPECT_TRUE(gate.admit(ok, 1, 8, 0).is_ok());
  EXPECT_EQ(gate.inflight_slots(1), 8u);
  EXPECT_EQ(gate.counters(1)->inflight_slots.value(), 8);
  EXPECT_EQ(gate.admit(ok, 1, 3, 0).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(gate.admit(ok, 1, 2, 0).is_ok());
  // Release restores the budget; completions count only resolved ones.
  gate.release(1, 8, /*completed=*/true);
  gate.release(1, 2, /*completed=*/false);
  EXPECT_EQ(gate.inflight_slots(1), 0u);
  EXPECT_EQ(gate.counters(1)->completions.value(), 1u);
  EXPECT_EQ(gate.counters(1)->admitted.value(), 2u);
}

TEST(AdmissionController, RateLimitRefillsOnSimTime) {
  AdmissionController gate(two_tenants());
  ByteVec payload;
  auto burst = write_request(2, payload, 512);
  EXPECT_TRUE(gate.admit(burst, 2, 0, 0).is_ok());          // drains burst
  EXPECT_EQ(gate.admit(burst, 2, 0, 0).code(),              // empty bucket
            StatusCode::kResourceExhausted);
  // 1000 B/s: 512 bytes need 512 ms of sim-time.
  EXPECT_TRUE(gate.admit(burst, 2, 0, 512'000'000).is_ok());
  EXPECT_EQ(gate.counters(2)->admitted.value(), 2u);
  EXPECT_EQ(gate.counters(2)->rejected.value(), 1u);
  EXPECT_EQ(gate.counters(2)->payload_bytes.value(), 1024u);
}

TEST(AdmissionController, WouldAdmitPreviewsWithoutCharging) {
  AdmissionController gate(two_tenants());
  EXPECT_TRUE(gate.would_admit(2, 512, 0, 0));
  EXPECT_TRUE(gate.would_admit(2, 512, 0, 0));  // preview consumed nothing
  EXPECT_FALSE(gate.would_admit(2, 513, 0, 0));
  EXPECT_FALSE(gate.would_admit(1, 2048, 0, 0));
  EXPECT_FALSE(gate.would_admit(9, 1, 0, 0));
  EXPECT_EQ(gate.counters(2)->admitted.value(), 0u);
  EXPECT_EQ(gate.counters(2)->rejected.value(), 0u);
}

// ---- End-to-end gate pairing through the driver --------------------------

TEST(TenantScheduler, GatePairsEveryAdmissionThroughTheDriver) {
  core::TestbedConfig config = test::small_testbed_config(2);
  core::Testbed bed(config);

  SchedulerConfig sched_config;
  TenantConfig t1;
  t1.id = 1;
  t1.hw_qid = 1;
  t1.weight = 2;
  TenantConfig t2;
  t2.id = 2;
  t2.hw_qid = 2;
  t2.inline_slot_budget = 40;
  sched_config.tenants = {t1, t2};
  TenantScheduler sched(bed, sched_config);

  ByteVec payload(700, Byte{0x5a});
  for (int i = 0; i < 8; ++i) {
    auto done = sched.execute_write(1, ConstByteSpan(payload),
                                    TransferMethod::kByteExpress);
    ASSERT_TRUE(done.is_ok()) << done.status().to_string();
    EXPECT_TRUE(done->ok());
    auto done2 = sched.execute_write(2, ConstByteSpan(payload),
                                     TransferMethod::kByteExpress);
    ASSERT_TRUE(done2.is_ok()) << done2.status().to_string();
  }
  for (std::uint16_t tenant : {1, 2}) {
    const AdmissionController::TenantCounters* counters =
        sched.admission().counters(tenant);
    EXPECT_EQ(counters->admitted.value(), 8u);
    EXPECT_EQ(counters->completions.value(), 8u);
    EXPECT_EQ(counters->rejected.value(), 0u);
    EXPECT_EQ(counters->inflight_slots.value(), 0);
    EXPECT_EQ(counters->payload_bytes.value(), 8u * 700u);
    EXPECT_EQ(sched.errors(tenant), 0u);
    EXPECT_EQ(sched.latency(tenant).count(), 8u);
  }
  // Metrics registry sees the same counters under tenant.* names.
  EXPECT_EQ(bed.metrics().counter_value("tenant.t1.admitted"), 8u);
  EXPECT_EQ(bed.metrics().counter_value("tenant.t2.completions"), 8u);
  // Per-tenant telemetry windows telescope to the cumulative counters.
  bed.telemetry().flush(bed.clock().now());
  std::uint64_t window_admitted = 0;
  for (const obs::TelemetrySample& sample : bed.telemetry().samples()) {
    for (const obs::TenantWindow& window : sample.tenants) {
      if (window.tenant == 1) window_admitted += window.admitted;
    }
  }
  EXPECT_EQ(window_admitted, 8u);
}

TEST(TenantScheduler, VirtualQueueBoundsInFlightLocally) {
  core::TestbedConfig config = test::small_testbed_config(1);
  core::Testbed bed(config);
  SchedulerConfig sched_config;
  TenantConfig t1;
  t1.id = 1;
  sched_config.tenants = {t1};
  sched_config.vqueue_depth = 2;
  TenantScheduler sched(bed, sched_config);

  ByteVec payload(128, Byte{0x11});
  VirtualQueue& vq = sched.vqueue(1);
  auto a = vq.submit_write(ConstByteSpan(payload), TransferMethod::kPrp);
  auto b = vq.submit_write(ConstByteSpan(payload), TransferMethod::kPrp);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  auto c = vq.submit_write(ConstByteSpan(payload), TransferMethod::kPrp);
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(vq.rejected_local(), 1u);
  // The local bound never consulted the gate.
  EXPECT_EQ(sched.admission().counters(1)->rejected.value(), 0u);
  EXPECT_TRUE(vq.drain().is_ok());
  EXPECT_EQ(vq.in_flight(), 0u);
}

// The adaptive policy decides a kAuto tenant write once, at submission.
// A burst deep enough to cross the shed watermark sheds the late submits,
// but every write it admitted completes: waiting must not ask the policy
// again (which would shed a command the device already finished).
TEST(TenantScheduler, AdmittedAutoWritesAreNotShedAtWait) {
  core::TestbedConfig config = test::small_testbed_config(1, 32);
  config.policy_enabled = true;
  core::Testbed bed(config);
  SchedulerConfig sched_config;
  TenantConfig t1;
  t1.id = 1;
  sched_config.tenants = {t1};
  sched_config.vqueue_depth = 64;
  TenantScheduler sched(bed, sched_config);

  ByteVec payload(96, Byte{0x3c});
  VirtualQueue& vq = sched.vqueue(1);
  std::vector<std::uint64_t> admitted;
  for (int i = 0; i < 40; ++i) {
    auto vcid = vq.submit_write(ConstByteSpan(payload), TransferMethod::kAuto);
    if (vcid.is_ok()) {
      admitted.push_back(*vcid);
    } else {
      EXPECT_EQ(vcid.status().code(), StatusCode::kResourceExhausted);
    }
  }
  ASSERT_EQ(admitted.size(), 10u) << "the burst must cross the watermark";
  for (const std::uint64_t vcid : admitted) {
    auto completion = vq.wait(vcid);
    ASSERT_TRUE(completion.is_ok()) << completion.status().to_string();
    EXPECT_TRUE(completion->ok());
  }
  // The same writes one at a time: one decision per command throughout.
  for (int i = 0; i < 40; ++i) {
    auto completion =
        sched.execute_write(1, ConstByteSpan(payload), TransferMethod::kAuto);
    ASSERT_TRUE(completion.is_ok()) << completion.status().to_string();
    EXPECT_TRUE(completion->ok());
  }
  const obs::MetricsRegistry& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("driver.commands"), 50u);
  EXPECT_EQ(metrics.counter_value("policy.decisions.inline") +
                metrics.counter_value("policy.decisions.dma"),
            50u);
}

// ---- WRR conformance -----------------------------------------------------

/// Submits `ops` PRP writes per queue asynchronously (each op is exactly
/// one grant's worth of work) and returns the per-queue handles.
std::vector<std::vector<driver::Submitted>> stack_backlogs(
    core::Testbed& bed, const std::vector<std::uint16_t>& qids,
    std::uint32_t ops, ByteVec& payload) {
  std::vector<std::vector<driver::Submitted>> handles(qids.size());
  driver::IoRequest request;
  request.write_data = ConstByteSpan(payload);
  request.method = TransferMethod::kPrp;
  for (std::uint32_t i = 0; i < ops; ++i) {
    for (std::size_t q = 0; q < qids.size(); ++q) {
      auto submitted = bed.driver().submit(request, qids[q]);
      EXPECT_TRUE(submitted.is_ok()) << submitted.status().to_string();
      handles[q].push_back(submitted.value());
    }
  }
  return handles;
}

void drain_backlogs(core::Testbed& bed,
                    const std::vector<std::vector<driver::Submitted>>& handles) {
  for (const auto& queue_handles : handles) {
    for (const driver::Submitted& handle : queue_handles) {
      auto completion = bed.driver().wait(handle);
      ASSERT_TRUE(completion.is_ok()) << completion.status().to_string();
    }
  }
}

TEST(WrrArbitration, GrantSharesMatchWeightsWithinFivePercent) {
  core::TestbedConfig config = test::small_testbed_config(3, 256);
  core::Testbed bed(config);
  bed.controller().set_queue_arbitration(1, 1);
  bed.controller().set_queue_arbitration(2, 2);
  bed.controller().set_queue_arbitration(3, 5);

  ByteVec payload(256, Byte{0x3c});
  // 120 ops per queue; 160 polls grant 20/40/100 — every queue keeps a
  // backlog throughout, so the split is pure arbitration.
  auto handles = stack_backlogs(bed, {1, 2, 3}, 120, payload);
  const std::uint64_t before[3] = {bed.controller().grants(1),
                                   bed.controller().grants(2),
                                   bed.controller().grants(3)};
  constexpr std::uint32_t kPolls = 160;
  for (std::uint32_t i = 0; i < kPolls; ++i) {
    ASSERT_TRUE(bed.controller().poll_once());
  }
  const double total_weight = 8.0;
  const std::uint32_t weights[3] = {1, 2, 5};
  for (int q = 0; q < 3; ++q) {
    const double share =
        static_cast<double>(bed.controller().grants(q + 1) - before[q]) /
        kPolls;
    const double expected = weights[q] / total_weight;
    EXPECT_NEAR(share, expected, 0.05)
        << "queue " << q + 1 << " share " << share;
  }
  drain_backlogs(bed, handles);
}

TEST(WrrArbitration, UrgentClassPreemptsWithinBurstBound) {
  core::TestbedConfig config = test::small_testbed_config(3, 256);
  core::Testbed bed(config);
  bed.controller().set_queue_arbitration(1, 1, /*urgent=*/true);
  bed.controller().set_queue_arbitration(2, 1);
  bed.controller().set_queue_arbitration(3, 3);

  ByteVec payload(256, Byte{0x3c});
  // 180 polls with burst limit 8: the urgent queue takes 8 of every 9
  // grants (160), the normal queues split the forced 20 grants 1:3.
  auto handles = stack_backlogs(bed, {1}, 170, payload);
  auto normal_handles = stack_backlogs(bed, {2, 3}, 40, payload);
  const std::uint64_t before[3] = {bed.controller().grants(1),
                                   bed.controller().grants(2),
                                   bed.controller().grants(3)};
  constexpr std::uint32_t kPolls = 180;
  for (std::uint32_t i = 0; i < kPolls; ++i) {
    ASSERT_TRUE(bed.controller().poll_once());
  }
  const double urgent_share =
      static_cast<double>(bed.controller().grants(1) - before[0]) / kPolls;
  const std::uint64_t normal2 = bed.controller().grants(2) - before[1];
  const std::uint64_t normal3 = bed.controller().grants(3) - before[2];
  // Urgent gets its burst share (8/9 ~ 0.889) within 5%.
  EXPECT_NEAR(urgent_share, 8.0 / 9.0, 0.05);
  // The starvation bound held: normal queues got their forced grants.
  EXPECT_GE(normal2 + normal3, kPolls / 9);
  // And those normal grants split by weight (1:3) within 5% of the
  // normal-class total.
  ASSERT_GT(normal2 + normal3, 0u);
  const double normal3_share =
      static_cast<double>(normal3) / static_cast<double>(normal2 + normal3);
  EXPECT_NEAR(normal3_share, 0.75, 0.05);
  drain_backlogs(bed, handles);
  drain_backlogs(bed, normal_handles);
}

TEST(WrrArbitration, WeightsApplyWithoutAFlag) {
  // A default testbed: weights take effect as soon as they are set.
  core::TestbedConfig config = test::small_testbed_config(2, 128);
  core::Testbed bed(config);
  bed.controller().set_queue_arbitration(1, 3);
  bed.controller().set_queue_arbitration(2, 1);
  ByteVec payload(256, Byte{0x3c});
  auto handles = stack_backlogs(bed, {1, 2}, 20, payload);
  const std::uint64_t before1 = bed.controller().grants(1);
  const std::uint64_t before2 = bed.controller().grants(2);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(bed.controller().poll_once());
  EXPECT_EQ(bed.controller().grants(1) - before1, 6u);
  EXPECT_EQ(bed.controller().grants(2) - before2, 2u);
  drain_backlogs(bed, handles);
}

TEST(WrrArbitration, UnitWeightsServeInCyclicOrder) {
  // At unit weights each grant passes the turn to the next backlogged
  // queue in qid order, skipping empty ones: the plain round-robin
  // doorbell poll.
  core::TestbedConfig config = test::small_testbed_config(3, 128);
  core::Testbed bed(config);
  ByteVec payload(256, Byte{0x3c});
  driver::IoRequest request;
  request.write_data = ConstByteSpan(payload);
  request.method = TransferMethod::kPrp;
  std::vector<std::vector<driver::Submitted>> handles(3);
  const std::uint32_t backlog[3] = {4, 1, 4};
  for (std::uint16_t q = 0; q < 3; ++q) {
    for (std::uint32_t i = 0; i < backlog[q]; ++i) {
      auto submitted = bed.driver().submit(request, q + 1);
      ASSERT_TRUE(submitted.is_ok()) << submitted.status().to_string();
      handles[q].push_back(submitted.value());
    }
  }
  std::vector<std::uint16_t> order;
  for (int poll = 0; poll < 9; ++poll) {
    const std::uint64_t before[3] = {bed.controller().grants(1),
                                     bed.controller().grants(2),
                                     bed.controller().grants(3)};
    ASSERT_TRUE(bed.controller().poll_once());
    for (std::uint16_t q = 0; q < 3; ++q) {
      if (bed.controller().grants(q + 1) != before[q]) order.push_back(q + 1);
    }
  }
  EXPECT_EQ(order,
            (std::vector<std::uint16_t>{1, 2, 3, 1, 3, 1, 3, 1, 3}));
  drain_backlogs(bed, handles);
}

// ---- Adversarial isolation sweep ----------------------------------------

IsolationOptions adversarial_options(std::uint64_t seed) {
  IsolationOptions options;
  options.seed = seed;
  options.rounds = 10;
  options.victim_ops_per_round = 8;
  options.aggressor_ops_per_round = 32;
  options.victim_weight = 3;
  options.aggressor_weight = 1;
  options.aggressor_inline_slot_budget = 64;
  options.aggressor_payload_cap = 2048;
  options.oversize_bytes = 4096;
  options.oversize_probability = 0.25;
  // The storm: corrupted chunks, retryable errors, dropped and delayed
  // completions, all confined to the aggressor's queue by the harness.
  options.storm.chunk_corrupt = 0.08;
  options.storm.error_retryable = 0.05;
  options.storm.completion_drop = 0.02;
  options.storm.completion_delay = 0.02;
  return options;
}

TEST(IsolationSweep, FloodOnlyAdversaryCannotMoveVictimP99) {
  IsolationOptions options = adversarial_options(0x15e7a);
  options.storm = {};  // flood + oversize only, no injector
  const IsolationResult result = run_isolation_sweep(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  // The victim completed everything it submitted, cleanly.
  EXPECT_EQ(result.victim.admitted, result.victim.ops_attempted);
  EXPECT_EQ(result.victim.errors, 0u);
  // The oversized fraction of the flood was turned away at the gate.
  EXPECT_GT(result.aggressor.rejected, 0u);
  // Acceptance bound: contended p99 within 2x of solo.
  ASSERT_GT(result.victim_solo.p99_ns, 0u);
  EXPECT_LE(result.p99_interference, 2.0)
      << "solo p99 " << result.victim_solo.p99_ns << " contended p99 "
      << result.victim.p99_ns;
  // Acceptance bound: saturated grant share within 20% of the WRR share.
  EXPECT_NEAR(result.victim_saturated_share, result.expected_grant_share,
              0.2 * result.expected_grant_share);
}

TEST(IsolationSweep, FaultStormStaysConfinedToAggressor) {
  const IsolationResult result = run_isolation_sweep(adversarial_options(0x15e7b));
  ASSERT_TRUE(result.ok()) << result.failure;
  // The storm actually fired, and every injected fault is accounted for
  // (the harness asserts the equality; spot-check the counters came
  // through).
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_EQ(result.faults_injected, result.faults_recovered +
                                        result.faults_degraded +
                                        result.faults_failed);
  // Victim integrity under the storm: clean completions, bounded p99.
  EXPECT_EQ(result.victim.errors, 0u);
  ASSERT_GT(result.victim_solo.p99_ns, 0u);
  EXPECT_LE(result.p99_interference, 2.0)
      << "solo p99 " << result.victim_solo.p99_ns << " contended p99 "
      << result.victim.p99_ns;
  EXPECT_NEAR(result.victim_saturated_share, result.expected_grant_share,
              0.2 * result.expected_grant_share);
}

TEST(IsolationSweep, UrgentVictimKeepsBounds) {
  IsolationOptions options = adversarial_options(0x15e7c);
  options.victim_urgent = true;
  const IsolationResult result = run_isolation_sweep(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  EXPECT_EQ(result.victim.errors, 0u);
  ASSERT_GT(result.victim_solo.p99_ns, 0u);
  EXPECT_LE(result.p99_interference, 2.0);
  // An urgent victim is allowed MORE than its weight share (preemption up
  // to the burst bound), never less than the WRR floor.
  EXPECT_GE(result.victim_saturated_share,
            result.expected_grant_share * 0.8);
}

TEST(IsolationSweep, DeterministicAcrossSeeds) {
  for (const std::uint64_t seed : {0xaull, 0xbull, 0xcull}) {
    const IsolationResult first = run_isolation_sweep(adversarial_options(seed));
    const IsolationResult second = run_isolation_sweep(adversarial_options(seed));
    ASSERT_TRUE(first.ok()) << first.failure;
    ASSERT_TRUE(second.ok()) << second.failure;
    EXPECT_EQ(first.victim.p99_ns, second.victim.p99_ns);
    EXPECT_EQ(first.victim_solo.p99_ns, second.victim_solo.p99_ns);
    EXPECT_EQ(first.victim.admitted, second.victim.admitted);
    EXPECT_EQ(first.aggressor.admitted, second.aggressor.admitted);
    EXPECT_EQ(first.aggressor.rejected, second.aggressor.rejected);
    EXPECT_EQ(first.aggressor.errors, second.aggressor.errors);
    EXPECT_EQ(first.faults_injected, second.faults_injected);
    EXPECT_EQ(first.victim.hw_grants, second.victim.hw_grants);
    EXPECT_EQ(first.victim_saturated_share, second.victim_saturated_share);
  }
}

TEST(IsolationSweep, ReaderVictimUnharmedByInlineWriteAggressor) {
  // ByteExpress-R mixed-direction scenario: the victim's payloads travel
  // device-to-host through the CRC-protected inline completion ring
  // while the aggressor floods the host-to-device inline write path
  // under the full fault storm (confined to its queue). The reader must
  // keep the write-victim isolation bounds.
  IsolationOptions options = adversarial_options(0x15e7e);
  options.victim_reads = true;
  const IsolationResult result = run_isolation_sweep(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  // The victim's reads actually used the inline completion ring, and the
  // host-side CRC saw no corruption (the storm cannot reach its queue).
  EXPECT_GT(result.inline_read_completions, 0u);
  EXPECT_EQ(result.inline_read_crc_errors, 0u);
  // Every read completed cleanly despite the storm next door.
  EXPECT_EQ(result.victim.errors, 0u);
  EXPECT_EQ(result.victim.completions, result.victim.admitted);
  // Fault identity still holds with mixed-direction inline traffic.
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_EQ(result.faults_injected, result.faults_recovered +
                                        result.faults_degraded +
                                        result.faults_failed);
  // Isolation acceptance bounds apply to the reader tenant unchanged.
  ASSERT_GT(result.victim_solo.p99_ns, 0u);
  EXPECT_LE(result.p99_interference, 2.0)
      << "solo p99 " << result.victim_solo.p99_ns << " contended p99 "
      << result.victim.p99_ns;
  EXPECT_NEAR(result.victim_saturated_share, result.expected_grant_share,
              0.2 * result.expected_grant_share);
}

TEST(IsolationSweep, ReaderVictimDeterministicAcrossRuns) {
  IsolationOptions options = adversarial_options(0x15e7f);
  options.victim_reads = true;
  const IsolationResult first = run_isolation_sweep(options);
  const IsolationResult second = run_isolation_sweep(options);
  ASSERT_TRUE(first.ok()) << first.failure;
  ASSERT_TRUE(second.ok()) << second.failure;
  EXPECT_EQ(first.victim.p99_ns, second.victim.p99_ns);
  EXPECT_EQ(first.victim.admitted, second.victim.admitted);
  EXPECT_EQ(first.inline_read_completions, second.inline_read_completions);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
}

TEST(IsolationSweep, RateLimitedAggressorIsThrottled) {
  IsolationOptions options = adversarial_options(0x15e7d);
  options.storm = {};
  options.aggressor_rate_bytes_per_sec = 1'000'000;  // 1 MB/s of sim-time
  options.aggressor_burst_bytes = 4096;
  const IsolationResult result = run_isolation_sweep(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  // The token bucket turned away a chunk of the flood beyond the
  // oversized ops.
  EXPECT_LT(result.aggressor.admitted,
            result.aggressor.ops_attempted - result.aggressor.rejected_local);
  EXPECT_EQ(result.victim.errors, 0u);
}

}  // namespace
}  // namespace bx::tenant
