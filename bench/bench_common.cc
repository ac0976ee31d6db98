#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace bx::bench {
namespace {

// Report state for the BENCH_<binary>.json artifact, written once at
// process exit so every measured row of a bench lands in one file.
std::string g_report_name;        // binary basename, set by from_args()
std::string g_config_json;        // run-config block, set by from_args()
std::vector<std::string> g_rows;  // pre-rendered JSON row objects

void write_report() {
  if (g_report_name.empty()) return;
  const std::string path = "BENCH_" + g_report_name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string document =
      render_report(g_report_name, g_config_json, g_rows);
  std::fwrite(document.data(), 1, document.size(), out);
  std::fclose(out);
  std::printf("report: %s (%zu rows)\n", path.c_str(), g_rows.size());
}

/// The knob `key` (default `fallback`) when it lies in [min, max].
/// Otherwise prints "<binary>: <key> must be >= min" (or "<= max") and
/// exits 2 without writing a report.
std::int64_t knob(const Config& config, std::string_view key,
                  std::int64_t fallback, std::int64_t min, std::int64_t max) {
  const StatusOr<std::int64_t> value =
      config.get_int_in(key, fallback, min, max);
  if (value.is_ok()) return *value;
  std::fprintf(stderr, "%s: %s\n",
               g_report_name.empty() ? "bench" : g_report_name.c_str(),
               value.status().message().c_str());
  g_report_name.clear();
  std::exit(2);
}

}  // namespace

BenchEnv BenchEnv::from_args(int argc, const char* const* argv) {
  BenchEnv env;
  const Status parsed = env.config.parse_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", parsed.to_string().c_str());
    std::exit(2);
  }
  if (g_report_name.empty() && argc > 0 && argv[0] != nullptr) {
    std::string name = argv[0];
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    g_report_name = name.empty() ? "bench" : name;
    std::atexit(write_report);
  }
  env.ops = static_cast<std::uint64_t>(
      knob(env.config, "ops", static_cast<std::int64_t>(env.ops), 0,
           std::numeric_limits<std::int64_t>::max()));
  // Refuse an out-of-range link, queue or depth knob before the bench
  // prints its banner.
  static_cast<void>(env.testbed_config());
  g_config_json = render_config_json(env);
  return env;
}

core::TestbedConfig BenchEnv::testbed_config() const {
  core::TestbedConfig testbed;
  // PcieLink asserts these link ranges; the queue count must leave the
  // admin queue a BAR slot, and Create I/O SQ/CQ carry depth - 1 in 16
  // bits.
  testbed.link.generation =
      static_cast<int>(knob(config, "pcie.gen", 2, 1, 5));
  testbed.link.lanes = static_cast<int>(knob(config, "pcie.lanes", 8, 1, 32));

  testbed.driver.io_queue_count = static_cast<std::uint16_t>(
      knob(config, "queues", 2, 1, controller::Controller::kMaxQueues - 1));
  testbed.driver.io_queue_depth =
      static_cast<std::uint32_t>(knob(config, "depth", 256, 2, 65'536));
  testbed.driver.hybrid_threshold_bytes =
      static_cast<std::uint32_t>(config.get_int("hybrid.threshold", 256));

  // OpenSSD-like geometry scaled to keep the FTL map small: 2 GiB of 4 KiB
  // pages across 32 dies.
  testbed.ssd.geometry.channels =
      static_cast<std::uint32_t>(config.get_int("nand.channels", 8));
  testbed.ssd.geometry.ways =
      static_cast<std::uint32_t>(config.get_int("nand.ways", 4));
  testbed.ssd.geometry.blocks_per_die =
      static_cast<std::uint32_t>(config.get_int("nand.blocks", 128));
  testbed.ssd.geometry.pages_per_block =
      static_cast<std::uint32_t>(config.get_int("nand.pages", 128));

  testbed.ssd.kv.flush_threshold_bytes = static_cast<std::size_t>(
      config.get_int("kv.flush_threshold", 1 << 20));
  return testbed;
}

void print_banner(const BenchEnv& env, std::string_view title,
                  std::string_view reproduces) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%.*s\n", int(title.size()), title.data());
  std::printf("reproduces: %.*s\n", int(reproduces.size()),
              reproduces.data());
  std::printf("ops/point=%llu  link=Gen%lldx%lld  (simulated time & modeled "
              "PCIe bytes)\n",
              static_cast<unsigned long long>(env.ops),
              static_cast<long long>(env.config.get_int("pcie.gen", 2)),
              static_cast<long long>(env.config.get_int("pcie.lanes", 8)));
  std::printf("---------------------------------------------------------------"
              "-----------------\n");
}

void print_note(std::string_view text) {
  std::printf("note: %.*s\n", int(text.size()), text.data());
}

core::RunStats run_kv_puts(core::Testbed& testbed, kv::KvClient& client,
                           workload::MixGraphWorkload* mixgraph,
                           workload::FillRandomWorkload* fillrandom,
                           std::uint64_t ops, std::string_view label) {
  core::RunStats stats;
  stats.label.assign(label);
  stats.ops = ops;

  testbed.reset_counters();
  const auto traffic_before = testbed.traffic().total();
  const Nanoseconds start = testbed.clock().now();

  for (std::uint64_t i = 0; i < ops; ++i) {
    const workload::KvOp op =
        mixgraph != nullptr ? mixgraph->next_put() : fillrandom->next_put();
    const Status put = client.put(op.key, op.value);
    BX_ASSERT_MSG(put.is_ok(), "KV put failed during benchmark");
    stats.latency.record(client.last_completion().latency_ns);
    stats.payload_bytes += op.value.size();
  }

  stats.total_time_ns = testbed.clock().now() - start;
  const auto traffic_after = testbed.traffic().total();
  stats.wire_bytes = traffic_after.wire_bytes - traffic_before.wire_bytes;
  stats.data_bytes = traffic_after.data_bytes - traffic_before.data_bytes;
  report_row(testbed, stats);
  return stats;
}

core::RunStats sweep(core::Testbed& testbed, driver::TransferMethod method,
                     std::uint32_t payload_size, std::uint64_t ops) {
  core::RunStats stats =
      core::run_write_sweep(testbed, method, payload_size, ops);
  report_row(testbed, stats);
  return stats;
}

void report_row(core::Testbed& testbed, const core::RunStats& stats) {
  if (g_report_name.empty()) return;
  // Each measured run resets counters first, so the trace and the
  // driver's wait sums hold exactly this run.
  g_rows.push_back(render_report_row(
      stats, testbed.trace().stage_breakdown(), testbed.trace().dropped(),
      testbed.driver().waits(), testbed.driver().wait_ns()));
}

std::string render_config_json(const BenchEnv& env) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "{\"seed\": %lld, \"pcie_gen\": %lld, \"pcie_lanes\": %lld, "
      "\"queues\": %lld, \"depth\": %lld, \"ops\": %llu, "
      "\"telemetry_window_ns\": %lld}",
      static_cast<long long>(env.config.get_int("seed", 0)),
      static_cast<long long>(env.config.get_int("pcie.gen", 2)),
      static_cast<long long>(env.config.get_int("pcie.lanes", 8)),
      static_cast<long long>(env.config.get_int("queues", 2)),
      static_cast<long long>(env.config.get_int("depth", 256)),
      static_cast<unsigned long long>(env.ops),
      static_cast<long long>(obs::TelemetryConfig{}.window_ns));
  return buf;
}

std::string render_report_row(const core::RunStats& stats,
                              const obs::StageBreakdown& breakdown,
                              std::uint64_t trace_events_dropped,
                              std::uint64_t waits,
                              const obs::LatencyBreakdown& wait_ns) {
  char head[576];
  std::snprintf(
      head, sizeof(head),
      "{\"label\": \"%s\", \"method\": \"%s\", \"ops\": %llu, "
      "\"payload_bytes\": %llu, "
      "\"wire_bytes\": %llu, \"data_bytes\": %llu, "
      "\"mean_latency_ns\": %.1f, \"p50_latency_ns\": %llu, "
      "\"p99_latency_ns\": %llu, \"kops\": %.1f, "
      "\"trace_events_dropped\": %llu, \"stages\": ",
      stats.label.c_str(), stats.method.c_str(),
      static_cast<unsigned long long>(stats.ops),
      static_cast<unsigned long long>(stats.payload_bytes),
      static_cast<unsigned long long>(stats.wire_bytes),
      static_cast<unsigned long long>(stats.data_bytes),
      stats.mean_latency_ns(),
      static_cast<unsigned long long>(stats.latency.percentile(50)),
      static_cast<unsigned long long>(stats.latency.percentile(99)),
      stats.kops(), static_cast<unsigned long long>(trace_events_dropped));
  // The waits block is obs::to_json(wait_ns) with the count put first.
  return std::string(head) + obs::to_json(breakdown) +
         ", \"waits\": {\"count\": " + std::to_string(waits) + ", " +
         obs::to_json(wait_ns).substr(1) + "}";
}

std::string render_report(std::string_view bench_name,
                          std::string_view config_json,
                          const std::vector<std::string>& rows) {
  std::string out = "{\n  \"bench\": \"";
  out.append(bench_name);
  out += "\",\n  \"schema_version\": " +
         std::to_string(kReportSchemaVersion) + ",\n  \"config\": ";
  out.append(config_json.empty() ? std::string_view("{}") : config_json);
  out += ",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += rows[i];
  }
  out += rows.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace bx::bench
