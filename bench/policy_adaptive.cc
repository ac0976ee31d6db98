// Adaptive method selection (TransferMethod::kAuto) under three loads:
//
//   1. fig5 regret sweep — at every fig5 payload point, kAuto must stay
//      within 10% of the best static method's mean latency (the policy's
//      cutoff sits at the measured ByteExpress/PRP crossover, so in the
//      steady state it simply picks the winner).
//   2. bursty mixed workload — Pareto on/off arrival bursts with
//      heavy-tailed payload sizes. No single static method wins both the
//      small-payload mass and the page-scale tail, so kAuto must
//      strictly beat every static on mean latency.
//   3. sustained overload — open-loop arrivals (backdated origin_ns)
//      faster than the service rate. Static methods queue without bound,
//      so doubling the horizon doubles p99; kAuto sheds at the
//      high-watermark (kResourceExhausted backpressure) and keeps the
//      admitted p99 flat.
//
// The bench self-asserts all three properties (it aborts on violation,
// so the CI smoke run already gates them); the bench-gates CI job
// re-checks the published BENCH_policy_adaptive.json with jq and diffs
// it against bench/baselines/ with tools/bxdiff.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace bx;         // NOLINT(google-build-using-namespace)
using namespace bx::bench;  // NOLINT(google-build-using-namespace)

namespace {

using driver::TransferMethod;

/// Bounded Pareto draw (heavy-tailed burst/gap lengths and payload
/// sizes). All schedule randomness flows through one seeded mt19937_64
/// per run, re-seeded identically for every method, so each method sees
/// the byte-identical arrival process.
double bounded_pareto(std::mt19937_64& rng, double xm, double alpha,
                      double cap) {
  std::uniform_real_distribution<double> uniform(1e-9, 1.0);
  return std::min(cap, xm / std::pow(uniform(rng), 1.0 / alpha));
}

/// Payload sizes: Pareto(48 B, alpha 1.1) clamped to 8 KiB — most ops
/// are ByteExpress-small, the tail is page-scale where PRP wins.
std::uint32_t draw_size(std::mt19937_64& rng) {
  return static_cast<std::uint32_t>(
      std::max(16.0, bounded_pareto(rng, 48.0, 1.1, 8192.0)));
}

core::TestbedConfig method_config(const BenchEnv& env,
                                  TransferMethod method) {
  core::TestbedConfig config = env.testbed_config();
  config.policy_enabled = method == TransferMethod::kAuto;
  return config;
}

void reap_one(core::Testbed& testbed, std::deque<driver::Submitted>& window,
              core::RunStats& stats) {
  auto completion = testbed.driver().wait(window.front());
  BX_ASSERT_MSG(completion.is_ok() && completion->ok(),
                "reap failed during policy bench");
  stats.latency.record(completion->latency_ns);
  window.pop_front();
}

// --- phase 1: fig5 regret sweep -------------------------------------------

double fig5_regret(const BenchEnv& env) {
  const std::vector<std::uint32_t> sizes = {32,  64,   128, 256,
                                            512, 1024, 4096};
  const std::vector<TransferMethod> statics = {TransferMethod::kPrp,
                                               TransferMethod::kSgl,
                                               TransferMethod::kByteExpress};
  const std::uint64_t ops = std::max<std::uint64_t>(env.ops / 2, 50);

  std::printf("\n-- fig5 regret sweep (auto vs best static, %llu ops/point)"
              " --\n",
              static_cast<unsigned long long>(ops));
  std::printf("%-10s %-12s %-12s %-12s %-12s %-8s\n", "payload", "prp_ns",
              "sgl_ns", "byteexpr_ns", "auto_ns", "regret");

  double max_regret = 0.0;
  for (const std::uint32_t size : sizes) {
    const std::string label = "fig5_" + std::to_string(size);
    double best = 0.0;
    double static_means[3] = {};
    for (std::size_t m = 0; m < statics.size(); ++m) {
      core::Testbed testbed(method_config(env, statics[m]));
      core::RunStats stats =
          core::run_write_sweep(testbed, statics[m], size, ops);
      stats.label = label;
      report_row(testbed, stats);
      static_means[m] = stats.mean_latency_ns();
      if (best == 0.0 || static_means[m] < best) best = static_means[m];
    }
    core::Testbed testbed(method_config(env, TransferMethod::kAuto));
    core::RunStats stats = core::run_write_sweep(
        testbed, TransferMethod::kAuto, size, ops);
    stats.label = label;
    report_row(testbed, stats);
    const double regret = stats.mean_latency_ns() / best;
    max_regret = std::max(max_regret, regret);
    std::printf("%-10u %-12.0f %-12.0f %-12.0f %-12.0f %.3f\n", size,
                static_means[0], static_means[1], static_means[2],
                stats.mean_latency_ns(), regret);
  }
  return max_regret;
}

// --- phase 2: bursty heavy-tailed mixed workload --------------------------

core::RunStats run_bursty(const BenchEnv& env, TransferMethod method,
                          std::uint64_t ops) {
  core::Testbed testbed(method_config(env, method));
  core::RunStats stats;
  stats.label = "bursty";
  stats.method = std::string(driver::transfer_method_name(method));

  // Small reap window: enough concurrency for bursts to pile into the SQ
  // without ever tripping the default shed watermark — phase 2 measures
  // pure method selection, phase 3 measures overload control.
  constexpr std::size_t kWindow = 16;
  std::deque<driver::Submitted> window;
  std::mt19937_64 rng(0xb1a5'7edc'afe5'eedull);
  ByteVec buffer(8192);
  fill_pattern(buffer, 42);

  testbed.reset_counters();
  const auto traffic_before = testbed.traffic().total();
  const Nanoseconds start = testbed.clock().now();

  std::uint64_t issued = 0;
  while (issued < ops) {
    // ON period: a Pareto-sized burst of back-to-back submissions.
    const auto burst = static_cast<std::uint64_t>(
        bounded_pareto(rng, 8.0, 1.3, 512.0));
    for (std::uint64_t n = 0; n < burst && issued < ops; ++n, ++issued) {
      const std::uint32_t size = draw_size(rng);
      driver::IoRequest request;
      request.opcode = nvme::IoOpcode::kVendorRawWrite;
      request.method = method;
      request.write_data = ConstByteSpan(buffer.data(), size);
      auto handle = testbed.driver().submit(request, 1);
      BX_ASSERT_MSG(handle.is_ok(), "submit failed during bursty phase");
      window.push_back(*handle);
      stats.payload_bytes += size;
      if (window.size() >= kWindow) reap_one(testbed, window, stats);
    }
    // OFF period: drain, then a Pareto-sized idle gap.
    while (!window.empty()) reap_one(testbed, window, stats);
    testbed.clock().advance(static_cast<Nanoseconds>(
        bounded_pareto(rng, 2'000.0, 1.3, 200'000.0)));
  }
  while (!window.empty()) reap_one(testbed, window, stats);

  stats.ops = ops;
  stats.total_time_ns = testbed.clock().now() - start;
  const auto traffic_after = testbed.traffic().total();
  stats.wire_bytes = traffic_after.wire_bytes - traffic_before.wire_bytes;
  stats.data_bytes = traffic_after.data_bytes - traffic_before.data_bytes;
  report_row(testbed, stats);
  return stats;
}

// --- phase 3: sustained overload ------------------------------------------

struct OverloadResult {
  double p99 = 0.0;
  std::uint64_t rejected = 0;
};

OverloadResult run_overload(const BenchEnv& env, TransferMethod method,
                            std::uint64_t horizon, const char* label) {
  core::TestbedConfig config = method_config(env, method);
  config.driver.io_queue_depth = 64;
  if (method == TransferMethod::kAuto) {
    // Watermarks sized to the reap window below: shed when the SQ holds
    // more than ~26 commands, reopen once it drains to ~4.
    config.policy.shed_high = 0.40;
    config.policy.shed_low = 0.06;
  }
  core::Testbed testbed(config);

  core::RunStats stats;
  stats.label = label;
  stats.method = std::string(driver::transfer_method_name(method));

  constexpr std::size_t kWindow = 32;
  const Nanoseconds interarrival = 1'000;  // well past every service rate
  std::deque<driver::Submitted> window;
  std::mt19937_64 rng(0xfeed'5eed'0b5e'55edull);
  ByteVec buffer(8192);
  fill_pattern(buffer, 43);

  testbed.reset_counters();
  const auto traffic_before = testbed.traffic().total();
  const Nanoseconds start = testbed.clock().now();
  OverloadResult result;

  for (std::uint64_t i = 0; i < horizon; ++i) {
    const std::uint32_t size = draw_size(rng);
    while (window.size() >= kWindow) reap_one(testbed, window, stats);
    driver::IoRequest request;
    request.opcode = nvme::IoOpcode::kVendorRawWrite;
    request.method = method;
    request.write_data = ConstByteSpan(buffer.data(), size);
    // Open-loop arrival schedule: the command's latency window starts at
    // its arrival time, so service falling behind shows up as latency.
    request.origin_ns = start + i * interarrival;
    auto handle = testbed.driver().submit(request, 1);
    if (!handle.is_ok()) {
      BX_ASSERT_MSG(handle.status().code() == StatusCode::kResourceExhausted,
                    "overload submit failed with a non-backpressure error");
      ++result.rejected;
      // The server keeps draining while the policy sheds.
      if (!window.empty()) reap_one(testbed, window, stats);
      continue;
    }
    window.push_back(*handle);
    stats.payload_bytes += size;
  }
  while (!window.empty()) reap_one(testbed, window, stats);

  stats.ops = horizon - result.rejected;
  stats.total_time_ns = testbed.clock().now() - start;
  const auto traffic_after = testbed.traffic().total();
  stats.wire_bytes = traffic_after.wire_bytes - traffic_before.wire_bytes;
  stats.data_bytes = traffic_after.data_bytes - traffic_before.data_bytes;
  report_row(testbed, stats);
  result.p99 = double(stats.latency.percentile(99));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::from_args(argc, argv);
  print_banner(env,
               "Adaptive method selection (kAuto): fig5 regret, bursty "
               "mixed load, overload control",
               "ByteExpress adaptive policy (docs/POLICY.md)");

  // Phase 1: never lose the steady state.
  const double max_regret = fig5_regret(env);
  std::printf("max regret vs best static: %.3f (gate: <= 1.10)\n",
              max_regret);
  BX_ASSERT_MSG(max_regret <= 1.10,
                "kAuto lost more than 10% to a static method at a fig5 "
                "point");

  // Phase 2: strictly win the mixed bursty workload.
  const std::vector<TransferMethod> statics = {
      TransferMethod::kPrp, TransferMethod::kSgl,
      TransferMethod::kByteExpress, TransferMethod::kBandSlim};
  std::printf("\n-- bursty mixed workload (%llu ops, Pareto on/off) --\n",
              static_cast<unsigned long long>(env.ops));
  const core::RunStats auto_stats =
      run_bursty(env, TransferMethod::kAuto, env.ops);
  std::printf("%-14s mean=%-10.0f p99=%llu\n", "auto",
              auto_stats.mean_latency_ns(),
              static_cast<unsigned long long>(
                  auto_stats.latency.percentile(99)));
  for (const TransferMethod method : statics) {
    const core::RunStats stats = run_bursty(env, method, env.ops);
    std::printf("%-14s mean=%-10.0f p99=%llu\n",
                std::string(driver::transfer_method_name(method)).c_str(),
                stats.mean_latency_ns(),
                static_cast<unsigned long long>(
                    stats.latency.percentile(99)));
    BX_ASSERT_MSG(auto_stats.mean_latency_ns() < stats.mean_latency_ns(),
                  "kAuto failed to strictly beat a static method on the "
                  "bursty mixed workload");
  }

  // Phase 3: bounded tail under sustained overload.
  const std::uint64_t n = std::max<std::uint64_t>(env.ops / 2, 100);
  std::printf("\n-- sustained overload (open-loop, horizons %llu / %llu) "
              "--\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(2 * n));
  const std::vector<TransferMethod> overload_methods = {
      TransferMethod::kAuto, TransferMethod::kPrp,
      TransferMethod::kByteExpress};
  for (const TransferMethod method : overload_methods) {
    const OverloadResult at_n = run_overload(env, method, n, "overload_n");
    const OverloadResult at_2n =
        run_overload(env, method, 2 * n, "overload_2n");
    const double growth = at_n.p99 == 0.0 ? 0.0 : at_2n.p99 / at_n.p99;
    std::printf("%-14s p99@N=%-12.0f p99@2N=%-12.0f growth=%-6.2f "
                "rejected=%llu/%llu\n",
                std::string(driver::transfer_method_name(method)).c_str(),
                at_n.p99, at_2n.p99, growth,
                static_cast<unsigned long long>(at_n.rejected),
                static_cast<unsigned long long>(at_2n.rejected));
    if (method == TransferMethod::kAuto) {
      BX_ASSERT_MSG(at_n.rejected > 0 && at_2n.rejected > 0,
                    "overload never tripped the shed watermark");
      BX_ASSERT_MSG(growth <= 1.5,
                    "kAuto p99 grew with the horizon despite shedding");
    } else {
      BX_ASSERT_MSG(at_n.rejected == 0 && at_2n.rejected == 0,
                    "a static method was backpressured");
      BX_ASSERT_MSG(growth >= 1.3,
                    "static overload p99 did not grow with the horizon "
                    "(overload too weak to gate on)");
    }
  }

  print_note(
      "gates: regret <= 1.10 at every fig5 point; auto strictly beats "
      "every static on the bursty mix; auto p99 flat under overload "
      "(growth <= 1.5) with rejects > 0 while statics grow >= 1.3x");
  return 0;
}
