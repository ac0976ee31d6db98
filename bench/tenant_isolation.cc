// Adversarial tenant-isolation bench (docs/TENANCY.md).
//
// Runs tenant/isolation.h's victim/aggressor sweep under escalating
// adversaries — submission flood, flood + seeded fault storm, storm with
// the aggressor rate-limited, storm against an urgent-class victim — and
// reports the p99 interference ratio (contended victim p99 / solo victim
// p99), the saturated WRR grant share versus the weight-promised share,
// and the admission/fault accounting. CI's bench-gates job gates on
// the p99_interference column of BENCH_tenant_isolation.json staying
// within the 2x isolation bound.
//
// Owns its main() (like microbench_multiqueue): the sweep builds its own
// testbeds internally, so the shared BenchEnv report scaffolding does not
// apply — the JSON document is written directly at the end of the run.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "tenant/isolation.h"

using namespace bx;  // NOLINT(google-build-using-namespace)

namespace {

tenant::IsolationOptions base_options(const Config& config,
                                      std::uint64_t ops) {
  tenant::IsolationOptions options;
  options.seed = static_cast<std::uint64_t>(config.get_int("seed", 0x7e2a47));
  // One round is victim_ops + aggressor_ops submissions; scale rounds so
  // the whole sweep issues about `ops` commands per phase.
  const std::uint64_t per_round =
      options.victim_ops_per_round + options.aggressor_ops_per_round;
  options.rounds = static_cast<std::uint32_t>(
      ops / per_round > 0 ? ops / per_round : 1);
  options.victim_weight =
      static_cast<std::uint32_t>(config.get_int("victim.weight", 3));
  options.aggressor_weight =
      static_cast<std::uint32_t>(config.get_int("aggressor.weight", 1));
  return options;
}

fault::FaultPolicy storm_policy() {
  fault::FaultPolicy storm;
  storm.chunk_corrupt = 0.08;
  storm.error_retryable = 0.05;
  storm.completion_drop = 0.02;
  storm.completion_delay = 0.02;
  return storm;
}

struct Row {
  std::string label;
  tenant::IsolationResult result;
};

std::string render_row(const Row& row) {
  const tenant::IsolationResult& r = row.result;
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"label\": \"%s\", \"ok\": %s, \"p99_interference\": %.4f, "
      "\"victim_solo_p99_ns\": %llu, \"victim_p99_ns\": %llu, "
      "\"victim_mean_ns\": %llu, \"victim_errors\": %llu, "
      "\"victim_saturated_share\": %.4f, \"expected_grant_share\": %.4f, "
      "\"victim_admitted\": %llu, \"aggressor_admitted\": %llu, "
      "\"aggressor_rejected\": %llu, \"aggressor_errors\": %llu, "
      "\"faults_injected\": %llu, \"faults_recovered\": %llu, "
      "\"faults_degraded\": %llu, \"faults_failed\": %llu}",
      row.label.c_str(), r.ok() ? "true" : "false", r.p99_interference,
      static_cast<unsigned long long>(r.victim_solo.p99_ns),
      static_cast<unsigned long long>(r.victim.p99_ns),
      static_cast<unsigned long long>(r.victim.mean_ns),
      static_cast<unsigned long long>(r.victim.errors),
      r.victim_saturated_share, r.expected_grant_share,
      static_cast<unsigned long long>(r.victim.admitted),
      static_cast<unsigned long long>(r.aggressor.admitted),
      static_cast<unsigned long long>(r.aggressor.rejected),
      static_cast<unsigned long long>(r.aggressor.errors),
      static_cast<unsigned long long>(r.faults_injected),
      static_cast<unsigned long long>(r.faults_recovered),
      static_cast<unsigned long long>(r.faults_degraded),
      static_cast<unsigned long long>(r.faults_failed));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  const Status parsed = config.parse_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "bad argument: %s\n", parsed.to_string().c_str());
    return 2;
  }
  const std::uint64_t ops =
      static_cast<std::uint64_t>(config.get_int("ops", 20'000));

  std::printf("== Tenant isolation under adversarial load ==\n");
  std::printf("victim: fixed 512 B inline writes, WRR weight %lld; "
              "aggressor: randomized flood with oversized payloads, "
              "weight %lld, slot budget + payload cap at the gate\n\n",
              static_cast<long long>(config.get_int("victim.weight", 3)),
              static_cast<long long>(config.get_int("aggressor.weight", 1)));
  std::printf("%-22s %-8s %-14s %-14s %-10s %-10s %s\n", "adversary", "ok",
              "solo p99 ns", "cont. p99 ns", "p99 ratio", "sat share",
              "agg rejected");

  std::vector<Row> rows;

  {
    tenant::IsolationOptions options = base_options(config, ops);
    rows.push_back({"flood", tenant::run_isolation_sweep(options)});
  }
  {
    tenant::IsolationOptions options = base_options(config, ops);
    options.storm = storm_policy();
    rows.push_back({"flood+storm", tenant::run_isolation_sweep(options)});
  }
  {
    tenant::IsolationOptions options = base_options(config, ops);
    options.storm = storm_policy();
    options.aggressor_rate_bytes_per_sec = 1'000'000;
    options.aggressor_burst_bytes = 4096;
    rows.push_back(
        {"flood+storm+ratelimit", tenant::run_isolation_sweep(options)});
  }
  {
    tenant::IsolationOptions options = base_options(config, ops);
    options.storm = storm_policy();
    options.victim_urgent = true;
    rows.push_back(
        {"flood+storm vs urgent", tenant::run_isolation_sweep(options)});
  }

  bool all_ok = true;
  for (const Row& row : rows) {
    const tenant::IsolationResult& r = row.result;
    all_ok = all_ok && r.ok();
    std::printf("%-22s %-8s %-14llu %-14llu %-10.3f %-10.3f %llu\n",
                row.label.c_str(), r.ok() ? "yes" : "NO",
                static_cast<unsigned long long>(r.victim_solo.p99_ns),
                static_cast<unsigned long long>(r.victim.p99_ns),
                r.p99_interference, r.victim_saturated_share,
                static_cast<unsigned long long>(r.aggressor.rejected));
    if (!r.ok()) {
      std::printf("  invariant violation: %s\n", r.failure.c_str());
    }
  }
  std::printf("\nnote: p99 ratio is contended/solo victim p99 (isolation "
              "bound 2.0); sat share is the victim's grant share while "
              "both queues were provably backlogged (WRR promise %.3f)\n",
              rows.front().result.expected_grant_share);

  std::string json = "{\n  \"schema_version\": 1,\n";
  json += "  \"bench\": \"tenant_isolation\",\n";
  char cfg[160];
  std::snprintf(cfg, sizeof(cfg),
                "  \"config\": {\"seed\": %lld, \"ops\": %llu, "
                "\"victim_weight\": %lld, \"aggressor_weight\": %lld},\n",
                static_cast<long long>(config.get_int("seed", 0x7e2a47)),
                static_cast<unsigned long long>(ops),
                static_cast<long long>(config.get_int("victim.weight", 3)),
                static_cast<long long>(config.get_int("aggressor.weight", 1)));
  json += cfg;
  json += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += render_row(rows[i]);
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  const char* path = "BENCH_tenant_isolation.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("report: %s\n", path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 2;
  }
  return all_ok ? 0 : 1;
}
