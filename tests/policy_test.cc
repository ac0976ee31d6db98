// AdaptivePolicy (TransferMethod::kAuto): decision determinism, hysteresis
// dwell under oscillating load, shed watermark open/close, and the in-
// process fig5 regret bound the bench-gates CI job gates end to end.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/measurement.h"
#include "core/testbed.h"
#include "policy/adaptive_policy.h"
#include "test_util.h"

namespace bx {
namespace {

using core::RunStats;
using core::Testbed;
using driver::IoRequest;
using driver::PolicyDecision;
using driver::TransferMethod;
using policy::AdaptivePolicy;
using policy::AdaptivePolicyConfig;

IoRequest write_request(ConstByteSpan payload) {
  IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.method = TransferMethod::kAuto;
  request.write_data = payload;
  return request;
}

obs::TelemetrySample window_sample(Nanoseconds start, Nanoseconds end,
                                   std::uint16_t qid,
                                   std::int64_t occupancy) {
  obs::TelemetrySample sample;
  sample.start_ns = start;
  sample.end_ns = end;
  obs::QueueWindow qw;
  qw.qid = qid;
  qw.sq_occupancy = occupancy;
  qw.inflight = occupancy;
  sample.queues.push_back(qw);
  return sample;
}

// The policy is a pure function of its inputs: two instances fed the
// same seeded request/window schedule render the identical decision
// sequence (no hidden clocks, no RNG).
TEST(AdaptivePolicyTest, SameSeedSameDecisionSequence) {
  AdaptivePolicyConfig config;
  AdaptivePolicy a(config);
  AdaptivePolicy b(config);
  obs::Gauge occ_a, inflight_a, occ_b, inflight_b;
  a.register_queue(1, 64, &occ_a, &inflight_a);
  b.register_queue(1, 64, &occ_b, &inflight_b);

  ByteVec buffer(8192);
  fill_pattern(buffer, 1);
  std::mt19937_64 rng(0xb10cfeedu);
  std::uniform_int_distribution<std::uint64_t> size_dist(1, 8192);
  std::uniform_int_distribution<std::int64_t> occ_dist(0, 64);

  Nanoseconds now = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t size = size_dist(rng);
    const std::int64_t occ = occ_dist(rng);
    now += 100;
    occ_a.set(occ);
    inflight_a.set(occ);
    occ_b.set(occ);
    inflight_b.set(occ);
    if (i % 16 == 0) {
      const auto sample = window_sample(now - 100, now, 1, occ);
      a.on_window(sample);
      b.on_window(sample);
    }
    const IoRequest request =
        write_request(ConstByteSpan(buffer.data(), size));
    const PolicyDecision da = a.decide(request, 1, now);
    const PolicyDecision db = b.decide(request, 1, now);
    EXPECT_EQ(da.method, db.method) << "op " << i;
    EXPECT_EQ(da.shed, db.shed) << "op " << i;
  }
}

// Backpressure hysteresis: shedding opens at the high watermark, stays
// open inside the band, and closes only at/below the low watermark.
TEST(AdaptivePolicyTest, ShedOpensAndClosesAtWatermarks) {
  AdaptivePolicyConfig config;
  config.shed_high = 0.90;
  config.shed_low = 0.50;
  AdaptivePolicy policy(config);
  obs::MetricsRegistry metrics;
  policy.bind_metrics(metrics);
  obs::Gauge occupancy, inflight;
  policy.register_queue(1, 100, &occupancy, &inflight);

  ByteVec buffer(64);
  fill_pattern(buffer, 2);
  const IoRequest request = write_request(buffer);

  // Below the high watermark: admitted.
  occupancy.set(80);
  EXPECT_FALSE(policy.decide(request, 1, 1000).shed);
  // Crossing it: rejected, gauge raised.
  occupancy.set(95);
  EXPECT_TRUE(policy.decide(request, 1, 2000).shed);
  EXPECT_EQ(metrics.gauge_value("policy.shedding_queues"), 1);
  EXPECT_EQ(metrics.counter_value("policy.shed_enters"), 1u);
  // Inside the hysteresis band: still rejected (no flapping).
  occupancy.set(70);
  EXPECT_TRUE(policy.decide(request, 1, 3000).shed);
  // At the low watermark: reopened.
  occupancy.set(50);
  EXPECT_FALSE(policy.decide(request, 1, 4000).shed);
  EXPECT_EQ(metrics.gauge_value("policy.shedding_queues"), 0);
  EXPECT_EQ(metrics.counter_value("policy.shed_exits"), 1u);
  EXPECT_EQ(metrics.counter_value("policy.rejects"), 2u);
}

// Oscillating load that crosses both congestion thresholds every window
// may switch modes at most once per dwell period.
TEST(AdaptivePolicyTest, HysteresisDwellLimitsModeSwitches) {
  AdaptivePolicyConfig config;
  config.ewma_alpha = 1.0;  // no smoothing: congestion tracks the input
  config.min_dwell_ns = 1'000;
  config.congest_high = 0.70;
  config.congest_low = 0.40;
  AdaptivePolicy policy(config);
  obs::MetricsRegistry metrics;
  policy.bind_metrics(metrics);
  obs::Gauge occupancy, inflight;
  policy.register_queue(1, 100, &occupancy, &inflight);

  // 40 windows of 100 ns, occupancy slamming between full and idle.
  for (int w = 0; w < 40; ++w) {
    const std::int64_t occ = (w % 2 == 0) ? 100 : 0;
    policy.on_window(
        window_sample(Nanoseconds(w) * 100, Nanoseconds(w + 1) * 100, 1,
                      occ));
  }
  // Without the dwell the machine would flip every window (~39 times);
  // with a 1 µs dwell over 4 µs it can move at most 4 times.
  const std::uint64_t switches = metrics.counter_value("policy.mode_switches");
  EXPECT_GE(switches, 1u);
  EXPECT_LE(switches, 4u);
}

// Congested mode tightens the inline cutoff; relaxed mode restores it.
TEST(AdaptivePolicyTest, CongestedModeTightensInlineCutoff) {
  AdaptivePolicyConfig config;
  config.ewma_alpha = 1.0;
  config.min_dwell_ns = 0;
  config.inline_cutoff_bytes = 384;
  config.loaded_cutoff_bytes = 128;
  AdaptivePolicy policy(config);
  obs::Gauge occupancy, inflight;
  policy.register_queue(1, 100, &occupancy, &inflight);

  ByteVec buffer(256);
  fill_pattern(buffer, 5);
  const IoRequest request = write_request(buffer);

  EXPECT_EQ(policy.decide(request, 1, 100).method,
            TransferMethod::kByteExpress);
  // One saturated window -> Congested -> 256 B now exceeds the cutoff
  // and the write rides SGL instead of holding inline SQ slots.
  policy.on_window(window_sample(0, 1'000, 1, 80));
  EXPECT_TRUE(policy.queue_status(1).congested);
  EXPECT_EQ(policy.decide(request, 1, 1'100).method, TransferMethod::kSgl);
  // Idle window -> Relaxed again.
  policy.on_window(window_sample(1'000, 2'000, 1, 0));
  EXPECT_FALSE(policy.queue_status(1).congested);
  EXPECT_EQ(policy.decide(request, 1, 2'100).method,
            TransferMethod::kByteExpress);
}

// Non-write requests ride the native PRP path; oversized writes ride
// SGL (byte-granular descriptors) — neither ever goes inline.
TEST(AdaptivePolicyTest, ReadsResolveToPrpOversizedWritesToSgl) {
  AdaptivePolicy policy;
  obs::Gauge occupancy, inflight;
  policy.register_queue(1, 100, &occupancy, &inflight);

  ByteVec buffer(64);
  IoRequest read;
  read.opcode = nvme::IoOpcode::kVendorRawRead;
  read.read_buffer = buffer;
  EXPECT_EQ(policy.decide(read, 1, 0).method, TransferMethod::kPrp);

  ByteVec large(16'384);
  fill_pattern(large, 6);
  EXPECT_EQ(policy.decide(write_request(large), 1, 0).method,
            TransferMethod::kSgl);
}

// End to end through the driver: kAuto with no policy attached degrades
// to kHybrid semantics, with the policy it resolves and completes.
TEST(AdaptivePolicyIntegrationTest, KAutoExecutesThroughDriver) {
  auto config = test::small_testbed_config();
  config.policy_enabled = true;
  Testbed testbed(config);
  ASSERT_NE(testbed.method_policy(), nullptr);

  ByteVec small(128), large(4'096);
  fill_pattern(small, 7);
  fill_pattern(large, 8);
  ASSERT_TRUE(testbed.raw_write(small, TransferMethod::kAuto)->ok());
  ASSERT_TRUE(testbed.raw_write(large, TransferMethod::kAuto)->ok());
  EXPECT_EQ(testbed.metrics().counter_value("policy.decisions.inline"), 1u);
  EXPECT_EQ(testbed.metrics().counter_value("policy.decisions.dma"), 1u);

  Testbed plain(test::small_testbed_config());
  EXPECT_TRUE(plain.raw_write(small, TransferMethod::kAuto)->ok());
  EXPECT_EQ(plain.metrics().counter_value("policy.decisions.inline"), 0u);
}

// Per-window policy deltas surface in the telemetry samples and add up
// to the cumulative counters.
TEST(AdaptivePolicyIntegrationTest, TelemetryWindowsCarryPolicyDeltas) {
  auto config = test::small_testbed_config();
  config.policy_enabled = true;
  config.telemetry.enabled = true;
  config.telemetry.window_ns = 5'000;
  Testbed testbed(config);

  ByteVec payload(96);
  fill_pattern(payload, 9);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kAuto)->ok());
  }
  testbed.telemetry().flush(testbed.clock().now());

  std::uint64_t inline_sum = 0, dma_sum = 0, reject_sum = 0;
  for (const auto& sample : testbed.telemetry().samples()) {
    inline_sum += sample.policy_inline;
    dma_sum += sample.policy_dma;
    reject_sum += sample.policy_rejects;
  }
  EXPECT_EQ(inline_sum,
            testbed.metrics().counter_value("policy.decisions.inline"));
  EXPECT_EQ(dma_sum, testbed.metrics().counter_value("policy.decisions.dma"));
  EXPECT_EQ(reject_sum, testbed.metrics().counter_value("policy.rejects"));
  EXPECT_EQ(inline_sum, 50u);
}

// The fig5 regret bound the CI bench gates, checked in-process on a
// reduced sweep: at every payload point kAuto's mean latency stays
// within 10% of the best static method.
TEST(AdaptivePolicyIntegrationTest, Fig5RegretBoundHolds) {
  constexpr std::uint64_t kOps = 300;
  const std::vector<std::uint32_t> sizes = {64, 256, 512, 4096};
  const std::vector<TransferMethod> statics = {TransferMethod::kPrp,
                                               TransferMethod::kSgl,
                                               TransferMethod::kByteExpress};
  for (const std::uint32_t size : sizes) {
    double best = 0.0;
    for (const TransferMethod method : statics) {
      Testbed testbed(test::small_testbed_config());
      const RunStats stats =
          core::run_write_sweep(testbed, method, size, kOps);
      const double mean = stats.mean_latency_ns();
      if (best == 0.0 || mean < best) best = mean;
    }
    auto config = test::small_testbed_config();
    config.policy_enabled = true;
    Testbed testbed(config);
    const RunStats stats =
        core::run_write_sweep(testbed, TransferMethod::kAuto, size, kOps);
    EXPECT_LE(stats.mean_latency_ns(), 1.10 * best)
        << "payload " << size << ": auto " << stats.mean_latency_ns()
        << " vs best static " << best;
  }
}

}  // namespace
}  // namespace bx
