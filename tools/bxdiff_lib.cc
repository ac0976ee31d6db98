#include "bxdiff_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace bx::tools {
namespace {

/// Absolute floor in the metric's own unit: a change smaller than this is
/// never a regression regardless of relative size. Chosen to sit above
/// scheduler-interleaving wobble but far below a real 10% regression at
/// the scales the benches run at. Metrics not listed here (stages,
/// waits, counts like "ops") are deliberately not compared: they are
/// either inputs or diagnostic payloads, not gated outputs.
double metric_floor(const std::string& name) {
  if (name == "mean_latency_ns" || name == "p50_latency_ns") return 50.0;
  if (name == "p99_latency_ns") return 100.0;
  if (name == "wire_bytes") return 256.0;
  if (name == "kops") return 5.0;
  if (name == "ops_per_sec") return 5000.0;
  if (name == "doorbells_per_op") return 0.01;
  if (name == "sim_ns") return 10000.0;
  return 0.0;
}

MetricDirection metric_direction(const std::string& name) {
  if (name == "kops" || name == "ops_per_sec") {
    return MetricDirection::kHigherIsBetter;
  }
  return MetricDirection::kLowerIsBetter;
}

const char* const kSchema2Metrics[] = {
    "mean_latency_ns", "p50_latency_ns", "p99_latency_ns",
    "wire_bytes",      "kops",
};

const char* const kSchema1Metrics[] = {
    "doorbells_per_op",
    "sim_ns",
    "ops_per_sec",
};

/// Key a row so baseline and candidate rows pair up. Schema 2 rows carry a
/// unique "label"; scaling-sweep rows are keyed by their sweep point.
std::string row_key(const json::Value& row) {
  if (const json::Value* label = row.get("label"); label != nullptr) {
    std::string key = label->string_or("?");
    if (const json::Value* method = row.get("method"); method != nullptr) {
      key += "/" + method->string_or("?");
    }
    return key;
  }
  const json::Value* queues = row.get("queues");
  const json::Value* depth = row.get("depth");
  if (queues != nullptr && depth != nullptr) {
    return "q" + std::to_string(static_cast<long long>(queues->number_or(0))) +
           "d" + std::to_string(static_cast<long long>(depth->number_or(0)));
  }
  return "?";
}

StatusOr<std::map<std::string, const json::Value*>> index_rows(
    const json::Value& report) {
  const json::Value* rows = report.get("rows");
  if (rows == nullptr || !rows->is_array()) {
    return invalid_argument("bxdiff: report has no \"rows\" array");
  }
  std::map<std::string, const json::Value*> index;
  for (const auto& row : rows->items) {
    if (row == nullptr || !row->is_object()) {
      return invalid_argument("bxdiff: non-object row in report");
    }
    const std::string key = row_key(*row);
    if (!index.emplace(key, row.get()).second) {
      return invalid_argument("bxdiff: duplicate row key '" + key + "'");
    }
  }
  return index;
}

void compare_metric(const std::string& key, const std::string& metric,
                    const json::Value& base_row, const json::Value& cand_row,
                    const DiffConfig& config, DiffReport& out) {
  const json::Value* base = base_row.get(metric);
  const json::Value* cand = cand_row.get(metric);
  if (base == nullptr || !base->is_number()) return;  // metric not in baseline
  if (cand == nullptr || !cand->is_number()) {
    // Baseline gated on this metric but the candidate stopped reporting it:
    // treat like a missing row so the gate cannot be dodged by dropping
    // the field.
    out.missing_rows.push_back(key + "." + metric);
    return;
  }
  MetricDelta delta;
  delta.row_key = key;
  delta.metric = metric;
  delta.direction = metric_direction(metric);
  delta.baseline = base->number;
  delta.candidate = cand->number;
  const double diff = delta.candidate - delta.baseline;
  const double denom = std::fabs(delta.baseline);
  delta.rel_change = denom > 0.0 ? diff / denom : (diff == 0.0 ? 0.0 : 1e9);

  const double bad_move = delta.direction == MetricDirection::kLowerIsBetter
                              ? diff
                              : -diff;
  const double floor = metric_floor(metric) * config.floor_scale;
  if (bad_move > floor && std::fabs(delta.rel_change) > config.rel_threshold) {
    delta.regressed = true;
    ++out.regressions;
  } else if (-bad_move > floor &&
             std::fabs(delta.rel_change) > config.rel_threshold) {
    delta.improved = true;
    ++out.improvements;
  }
  ++out.metrics_compared;
  out.deltas.push_back(std::move(delta));
}

}  // namespace

StatusOr<DiffReport> diff_reports(const json::Value& baseline,
                                  const json::Value& candidate,
                                  const DiffConfig& config) {
  const json::Value* base_name = baseline.get("bench");
  const json::Value* cand_name = candidate.get("bench");
  if (base_name == nullptr || cand_name == nullptr) {
    return invalid_argument("bxdiff: missing \"bench\" field");
  }
  if (base_name->string != cand_name->string) {
    return invalid_argument("bxdiff: bench mismatch: baseline '" +
                            base_name->string + "' vs candidate '" +
                            cand_name->string + "'");
  }

  auto base_rows = index_rows(baseline);
  if (!base_rows.is_ok()) return base_rows.status();
  auto cand_rows = index_rows(candidate);
  if (!cand_rows.is_ok()) return cand_rows.status();

  DiffReport report;
  report.bench = base_name->string;
  const bool schema2 = baseline.get("schema_version") != nullptr &&
                       baseline.get("schema_version")->number_or(0) >= 2;
  for (const auto& [key, base_row] : *base_rows) {
    const auto it = cand_rows->find(key);
    if (it == cand_rows->end()) {
      report.missing_rows.push_back(key);
      continue;
    }
    if (schema2) {
      for (const char* metric : kSchema2Metrics) {
        compare_metric(key, metric, *base_row, *it->second, config, report);
      }
    } else {
      for (const char* metric : kSchema1Metrics) {
        compare_metric(key, metric, *base_row, *it->second, config, report);
      }
    }
  }
  for (const auto& [key, cand_row] : *cand_rows) {
    (void)cand_row;
    if (base_rows->find(key) == base_rows->end()) {
      report.new_rows.push_back(key);
    }
  }
  return report;
}

StatusOr<DiffReport> diff_files(const std::string& baseline_path,
                                const std::string& candidate_path,
                                const DiffConfig& config) {
  auto baseline = json::parse_file(baseline_path);
  if (!baseline.is_ok()) return baseline.status();
  auto candidate = json::parse_file(candidate_path);
  if (!candidate.is_ok()) return candidate.status();
  return diff_reports(**baseline, **candidate, config);
}

std::string render_diff_report(const DiffReport& report, bool verbose) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "bxdiff: bench=%s rows-compared metrics=%zu\n",
                report.bench.c_str(), report.metrics_compared);
  out += line;
  for (const std::string& key : report.missing_rows) {
    out += "MISSING    " + key + " (present in baseline, absent in candidate)\n";
  }
  for (const MetricDelta& delta : report.deltas) {
    if (!delta.regressed && !delta.improved && !verbose) continue;
    const char* tag = delta.regressed    ? "REGRESSION"
                      : delta.improved   ? "IMPROVED  "
                                         : "ok        ";
    std::snprintf(line, sizeof(line),
                  "%s %s.%s: baseline=%.4f candidate=%.4f (%+.2f%%)\n", tag,
                  delta.row_key.c_str(), delta.metric.c_str(), delta.baseline,
                  delta.candidate, delta.rel_change * 100.0);
    out += line;
  }
  for (const std::string& key : report.new_rows) {
    out += "new row    " + key + " (not in baseline; update the baseline to gate it)\n";
  }
  std::snprintf(line, sizeof(line),
                "summary: %zu regression(s), %zu improvement(s), %zu missing "
                "row(s)%s\n",
                report.regressions, report.improvements,
                report.missing_rows.size(),
                report.clean() ? " -- CLEAN" : " -- FAIL");
  out += line;
  return out;
}

}  // namespace bx::tools
