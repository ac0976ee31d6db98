// Figure 6 — KV-SSD evaluation with NAND I/O enabled: 1M-style PUT runs
// under (a) MixGraph (db_bench defaults: >60% of values under 32 B) and
// (b) FillRandom with fixed 128 B values, comparing PRP, BandSlim and
// ByteExpress on PCIe traffic and PUT throughput.
//
// Published shape: ByteExpress cuts traffic ~95% vs PRP under MixGraph
// (though its traffic is above BandSlim's there, since BandSlim ships
// sub-32B values inside a single command) while still delivering the
// highest throughput; under FillRandom ByteExpress wins both axes.
//
// Panel (c) is ours, not the paper's: a GET/scan-heavy run over the same
// MixGraph value distribution comparing ByteExpress-R inline read
// completions against the native PRP return — the read-direction
// counterpart the original design left on the table.
#include <cstdio>

#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"

using namespace bx;         // NOLINT(google-build-using-namespace)
using namespace bx::bench;  // NOLINT(google-build-using-namespace)

namespace {

void run_panel(const BenchEnv& env, bool mixgraph_panel) {
  std::printf("\n--- Figure 6(%c): %s ---\n", mixgraph_panel ? 'a' : 'b',
              mixgraph_panel ? "MixGraph (All_random defaults)"
                             : "FillRandom (128-byte values)");
  // p1/p99 mirror the paper's 1st-99th percentile error bars.
  std::printf("%-14s %-14s %-10s %-11s %-10s %-10s %-10s\n", "method",
              "wire B/op", "amp", "mean ns/op", "p1 ns", "p99 ns", "Kops/s");

  core::RunStats reference_prp;
  core::RunStats reference_bs;
  core::RunStats reference_bx;
  for (const driver::TransferMethod method :
       {driver::TransferMethod::kPrp, driver::TransferMethod::kBandSlim,
        driver::TransferMethod::kByteExpress}) {
    // A fresh device per method so NAND/FTL state is identical.
    core::Testbed testbed(env.testbed_config());
    auto client = testbed.make_kv_client(method);
    workload::MixGraphWorkload mixgraph({.seed = 11});
    workload::FillRandomWorkload fillrandom({.value_size = 128, .seed = 11});
    const auto stats = run_kv_puts(
        testbed, client, mixgraph_panel ? &mixgraph : nullptr,
        mixgraph_panel ? nullptr : &fillrandom, env.ops,
        driver::transfer_method_name(method));
    std::printf("%-14s %-14.1f %-10.2f %-11.0f %-10llu %-10llu %-10.1f\n",
                stats.label.c_str(), stats.wire_bytes_per_op(),
                stats.amplification(), stats.mean_latency_ns(),
                static_cast<unsigned long long>(stats.latency.percentile(1)),
                static_cast<unsigned long long>(stats.latency.percentile(99)),
                stats.kops());
    if (method == driver::TransferMethod::kPrp) reference_prp = stats;
    if (method == driver::TransferMethod::kBandSlim) reference_bs = stats;
    if (method == driver::TransferMethod::kByteExpress) reference_bx = stats;
  }

  std::printf("headlines:\n");
  std::printf("  traffic reduction vs PRP (ByteExpress): %.1f%%  (paper: "
              "up to 95%% in MixGraph)\n",
              100.0 * (1.0 - reference_bx.wire_bytes_per_op() /
                                 reference_prp.wire_bytes_per_op()));
  std::printf("  ByteExpress/BandSlim traffic ratio:     %.2fx (paper: "
              "1.75x in MixGraph)\n",
              reference_bx.wire_bytes_per_op() /
                  reference_bs.wire_bytes_per_op());
  std::printf("  throughput gain vs BandSlim:            %.1f%%  (paper: "
              "~8%% MixGraph, ~+1Kops FillRandom)\n",
              100.0 * (reference_bx.kops() / reference_bs.kops() - 1.0));
}

// Panel (c): 90% GET / 10% scan over MixGraph-distributed values, with
// the inline read completion ring on vs off. Writes use ByteExpress in
// both runs, so the only delta is how read payloads return.
void run_read_panel(const BenchEnv& env) {
  std::printf("\n--- Figure 6(c): GET/scan-heavy, MixGraph values "
              "(ByteExpress-R vs native PRP return) ---\n");
  std::printf("%-16s %-14s %-16s %-11s %-10s\n", "read path", "wire B/op",
              "upstream B/op", "mean ns/op", "Kops/s");

  double upstream_per_op[2];
  int row = 0;
  for (const bool inline_ring : {true, false}) {
    core::TestbedConfig config = env.testbed_config();
    config.driver.inline_read_enabled = inline_ring;
    core::Testbed testbed(config);
    auto client = testbed.make_kv_client(driver::TransferMethod::kByteExpress);

    // Identical population in both runs. value_max stays at 512 so scan
    // batches fit the client's staging buffer — the small-value regime
    // the inline ring targets.
    workload::MixGraphWorkload mixgraph(
        {.key_space = 512, .value_max = 512, .seed = 11});
    std::vector<std::string> keys;
    for (int i = 0; i < 512; ++i) {
      const workload::KvOp op = mixgraph.next_put();
      BX_ASSERT(client.put(op.key, op.value).is_ok());
      keys.push_back(op.key);
    }

    Rng rng(0x6f3);
    testbed.reset_counters();
    const Nanoseconds start = testbed.clock().now();
    core::RunStats stats;
    stats.label = inline_ring ? "readpath_inline" : "readpath_native";
    stats.method = inline_ring ? "byteexpress-r" : "prp";
    stats.ops = env.ops;
    for (std::uint64_t i = 0; i < env.ops; ++i) {
      const std::string& key =
          keys[static_cast<std::size_t>(rng.next_below(keys.size()))];
      if (rng.next_below(10) == 0) {
        auto batch = client.scan(key, 4);
        BX_ASSERT(batch.is_ok());
        for (const kv::KvEntry& entry : *batch) {
          stats.payload_bytes += entry.value.size();
        }
      } else {
        auto value = client.get(key);
        BX_ASSERT(value.is_ok());
        stats.payload_bytes += value->size();
      }
      stats.latency.record(client.last_completion().latency_ns);
    }
    stats.total_time_ns = testbed.clock().now() - start;
    const pcie::TrafficCell total = testbed.traffic().total();
    stats.wire_bytes = total.wire_bytes;
    stats.data_bytes = total.data_bytes;
    const pcie::TrafficCell up =
        testbed.traffic().total(pcie::Direction::kUpstream);
    upstream_per_op[row] = double(up.wire_bytes) / double(env.ops);
    report_row(testbed, stats);
    std::printf("%-16s %-14.1f %-16.1f %-11.0f %-10.1f\n",
                stats.label.c_str(), stats.wire_bytes_per_op(),
                upstream_per_op[row], stats.mean_latency_ns(), stats.kops());
    ++row;
  }
  std::printf("headlines:\n");
  std::printf("  device->host wire reduction (inline ring): %.1f%%\n",
              100.0 * (1.0 - upstream_per_op[0] / upstream_per_op[1]));
  print_note("GETs return through the inline completion ring; scans "
             "declare a 64 KiB destination — above the 4 KiB inline cap — "
             "so they ride page-granular PRP in both runs and dilute the "
             "reduction (see ablation_read_path for the pure-GET sweep)");
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::from_args(argc, argv);
  print_banner(env,
               "Figure 6 — KV-SSD PUT workloads, NAND I/O enabled "
               "(PRP vs BandSlim vs ByteExpress)",
               "Fig 6(a) MixGraph, Fig 6(b) FillRandom");
  run_panel(env, /*mixgraph_panel=*/true);
  run_panel(env, /*mixgraph_panel=*/false);
  run_read_panel(env);
  print_note("our QD1 serial model exaggerates BandSlim's absolute gap "
             "(no fragment/NAND overlap); the ordering matches the paper");
  return 0;
}
