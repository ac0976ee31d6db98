// BENCH_*.json report layout: schema_version, config block, per-row
// method, stages and waits. Tests the pure render_* functions from
// bench_common so report-consumer breakage shows up here, not in CI
// artifact diffing.
#include <gtest/gtest.h>

#include <string>

#include "bench_common.h"
#include "obs/attribution.h"
#include "obs/trace.h"

namespace bx::bench {
namespace {

TEST(BenchReportTest, DocumentCarriesSchemaVersionAndConfig) {
  BenchEnv env;  // default knobs, no argv
  const std::string config_json = render_config_json(env);
  for (const char* key :
       {"\"seed\"", "\"pcie_gen\"", "\"pcie_lanes\"", "\"queues\"",
        "\"depth\"", "\"ops\"", "\"telemetry_window_ns\""}) {
    EXPECT_NE(config_json.find(key), std::string::npos) << key;
  }

  const std::string doc =
      render_report("fig5_payload_sweep", config_json, /*rows=*/{});
  EXPECT_NE(doc.find("\"bench\": \"fig5_payload_sweep\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_EQ(kReportSchemaVersion, 3);
  EXPECT_NE(doc.find("\"config\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"rows\": ["), std::string::npos);
}

core::RunStats row_stats() {
  core::RunStats stats;
  stats.label = "byteexpress/256B";
  stats.method = "byteexpress";
  stats.ops = 4;
  stats.payload_bytes = 1024;
  stats.wire_bytes = 4000;
  stats.data_bytes = 3000;
  stats.total_time_ns = 10'000;
  stats.latency.record(2'500);
  return stats;
}

TEST(BenchReportTest, RowCarriesMethodAndStages) {
  const std::string row =
      render_report_row(row_stats(), obs::StageBreakdown{},
                        /*trace_events_dropped=*/0, /*waits=*/0,
                        obs::LatencyBreakdown{});

  EXPECT_NE(row.find("\"label\": \"byteexpress/256B\""), std::string::npos);
  EXPECT_NE(row.find("\"method\": \"byteexpress\""), std::string::npos);
  EXPECT_NE(row.find("\"stages\": {}"), std::string::npos);
  EXPECT_EQ(row.find("timeseries"), std::string::npos);
}

TEST(BenchReportTest, RowCarriesWaitsAttribution) {
  // The driver's sums over 4 commands: the segments of all four
  // breakdowns, added up.
  obs::LatencyBreakdown wait_ns;
  wait_ns.of(obs::WaitSegment::kService) = 7'500;
  wait_ns.of(obs::WaitSegment::kBellHold) = 250;
  wait_ns.of(obs::WaitSegment::kDelivery) = 40;

  const std::string row =
      render_report_row(row_stats(), obs::StageBreakdown{},
                        /*trace_events_dropped=*/0, /*waits=*/4, wait_ns);

  EXPECT_NE(row.find("\"waits\": {\"count\": 4, \"gate\": 0, \"ring\": 0, "
                     "\"slot\": 0, \"bell\": 250, \"arb\": 0, "
                     "\"service\": 7500, \"reassembly\": 0, "
                     "\"delivery\": 40}}"),
            std::string::npos)
      << row;
  EXPECT_EQ(row.find("sampling"), std::string::npos);
}

}  // namespace
}  // namespace bx::bench
