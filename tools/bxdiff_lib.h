// bxdiff: baseline comparison for BENCH_*.json reports.
//
// Compares a candidate bench report against a committed golden baseline and
// flags metric regressions. Understands both report shapes the repo emits:
//
//  * bench_common.h schema (schema_version >= 2): rows keyed by "label"
//    (and "method"), metrics like mean/p50/p99 latency, kops, wire_bytes.
//  * microbench_multiqueue scaling sweep (schema_version 1): rows keyed by
//    (queues, depth), metrics like doorbells_per_op, sim_ns, ops_per_sec.
//
// Noise model: the simulator is deterministic under a fixed seed, so the
// default thresholds are tight — but thread interleaving can shift batched
// submissions slightly, so comparisons are noise-aware rather than exact: a
// metric only counts as regressed when it moves past BOTH a relative
// threshold and a per-metric absolute floor. Direction matters: latency,
// wire bytes and doorbells regress upward; kops and ops_per_sec regress
// downward. Structural drift (a baseline row missing from the candidate)
// is always a failure, so a bench silently dropping coverage cannot pass
// the gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace bx::tools {

/// Direction in which a metric can regress.
enum class MetricDirection : std::uint8_t {
  kLowerIsBetter,
  kHigherIsBetter,
};

/// Comparison knobs. `rel_threshold` is the fraction of movement (in the
/// bad direction) tolerated before a metric is flagged; per-metric absolute
/// floors suppress flagging tiny absolute wobbles on near-zero metrics.
struct DiffConfig {
  double rel_threshold = 0.10;
  /// Extra slack multiplier applied on top of per-metric floors; 1.0 uses
  /// the built-in floors as-is.
  double floor_scale = 1.0;
};

/// One compared metric in one row.
struct MetricDelta {
  std::string row_key;
  std::string metric;
  MetricDirection direction = MetricDirection::kLowerIsBetter;
  double baseline = 0.0;
  double candidate = 0.0;
  /// Signed relative change, (candidate - baseline) / |baseline|;
  /// +inf-ish large when baseline is 0 and candidate is not.
  double rel_change = 0.0;
  bool regressed = false;
  bool improved = false;
};

struct DiffReport {
  std::string bench;
  std::vector<MetricDelta> deltas;
  /// Baseline rows with no candidate counterpart (always a failure).
  std::vector<std::string> missing_rows;
  /// Candidate rows not in the baseline (informational, not a failure).
  std::vector<std::string> new_rows;
  std::size_t metrics_compared = 0;
  std::size_t regressions = 0;
  std::size_t improvements = 0;

  [[nodiscard]] bool clean() const noexcept {
    return regressions == 0 && missing_rows.empty();
  }
};

/// Compares two parsed reports. Fails with kInvalidArgument when either
/// document is not a recognised bench report or the bench names disagree.
[[nodiscard]] StatusOr<DiffReport> diff_reports(const json::Value& baseline,
                                                const json::Value& candidate,
                                                const DiffConfig& config);

/// Convenience wrapper: load both files and diff.
[[nodiscard]] StatusOr<DiffReport> diff_files(const std::string& baseline_path,
                                              const std::string& candidate_path,
                                              const DiffConfig& config);

/// Human-readable report (one line per regression/improvement, summary
/// tail). Stable format: CI greps for "REGRESSION" lines.
[[nodiscard]] std::string render_diff_report(const DiffReport& report,
                                             bool verbose);

}  // namespace bx::tools
