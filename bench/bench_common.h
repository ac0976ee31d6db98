// Shared benchmark scaffolding.
//
// Every bench binary reproduces one table/figure of the paper on the
// simulated testbed and prints the same rows/series the paper reports.
// Measurements are in *simulated* time (SimClock nanoseconds) and
// *modeled* PCIe wire bytes — never host wall-clock — so results are
// exactly reproducible. Binaries accept key=value overrides, e.g.:
//   ./fig5_payload_sweep ops=100000 pcie.gen=3
// Besides the human-readable tables, every bench binary writes a
// machine-readable BENCH_<binary>.json next to the cwd at exit: one row
// per measured configuration with the traffic counters, latency
// percentiles, the per-stage p50/p99 breakdown derived from the command
// trace, and the run's wait/service decomposition read from the driver
// (see docs/OBSERVABILITY.md). The document carries `schema_version` and
// a run-config block so consumers can detect layout changes and reproduce
// the run. CI uploads these as artifacts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/measurement.h"
#include "core/testbed.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "workload/mixgraph.h"

namespace bx::bench {

struct BenchEnv {
  Config config;
  /// Operations per data point. The paper issues 1M per configuration; the
  /// default here keeps full-suite runtime small while staying far past
  /// convergence of the deterministic model (override with ops=1000000).
  std::uint64_t ops = 20'000;

  /// Parses key=value arguments. A negative `ops`, or a `pcie.gen`,
  /// `pcie.lanes`, `queues` or `depth` testbed_config() would refuse,
  /// prints "<binary>: <knob> must be >= N" (or "<= N") and exits 2.
  static BenchEnv from_args(int argc, const char* const* argv);

  /// The paper's testbed: PCIe Gen2 x8, OpenSSD-like geometry. `pcie.gen`
  /// (1-5), `pcie.lanes` (1-32), `queues` (1-63), `depth` (2-65,536) and
  /// NAND keys can override.
  [[nodiscard]] core::TestbedConfig testbed_config() const;
};

/// Prints the banner: which figure/table, the workload, the knobs.
void print_banner(const BenchEnv& env, std::string_view title,
                  std::string_view reproduces);

/// Prints a note line ("note: ...").
void print_note(std::string_view text);

/// Runs `ops` KV PUTs from `workload` through `client`, returning stats
/// measured over the run (traffic + simulated latency). Used by Fig 6.
/// Also records a row in the BENCH_*.json report.
core::RunStats run_kv_puts(core::Testbed& testbed, kv::KvClient& client,
                           workload::MixGraphWorkload* mixgraph,
                           workload::FillRandomWorkload* fillrandom,
                           std::uint64_t ops, std::string_view label);

/// core::run_write_sweep plus a row in the BENCH_*.json report — the
/// sweep's stats annotated with the per-stage breakdown of exactly that
/// sweep's trace (run_write_sweep resets counters, so the trace holds
/// only this sweep's events).
core::RunStats sweep(core::Testbed& testbed, driver::TransferMethod method,
                     std::uint32_t payload_size, std::uint64_t ops);

/// Appends one row (stats + the current trace's stage breakdown + the
/// driver's wait sums) to the report written at exit. Call it after a run
/// that began with Testbed::reset_counters(). The report file is
/// BENCH_<binary>.json; it is written even when no rows were recorded, so
/// every bench produces an artifact.
void report_row(core::Testbed& testbed, const core::RunStats& stats);

// --- report rendering (pure; unit-tested by tests/bench_report_test.cc) ---

/// Report document layout version. Bump when field names/shape change.
inline constexpr int kReportSchemaVersion = 3;

/// The `config` block: the knobs that determine the run (seed, link
/// generation/lanes, queue topology, ops per point).
[[nodiscard]] std::string render_config_json(const BenchEnv& env);

/// One `rows[]` element for `stats` given the run's trace breakdown.
/// Besides the stage breakdown, each row carries a `waits` block: the
/// `waits` I/O commands the driver attributed over the run and the
/// per-segment sums of their breakdowns, `wait_ns` (the queue-depth-aware
/// wait/service decomposition; the segments sum to those commands' total
/// latency, exactly).
[[nodiscard]] std::string render_report_row(
    const core::RunStats& stats, const obs::StageBreakdown& breakdown,
    std::uint64_t trace_events_dropped, std::uint64_t waits,
    const obs::LatencyBreakdown& wait_ns);

/// The whole BENCH_*.json document.
[[nodiscard]] std::string render_report(std::string_view bench_name,
                                        std::string_view config_json,
                                        const std::vector<std::string>& rows);

}  // namespace bx::bench
