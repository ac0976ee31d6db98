// Exporter correctness: the Perfetto JSON passes its structural checker
// and is byte-identical across same-seed runs; the checker rejects
// malformed traces; the Prometheus exposition lints clean and the lint
// rejects malformed text; expose_gauge and the striped histogram behave.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "core/testbed.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/prometheus.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tenant/scheduler.h"
#include "tenant/tenant.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;
using obs::PerfettoCheck;
using obs::PrometheusLint;

constexpr TransferMethod kAllMethods[] = {
    TransferMethod::kPrp,           TransferMethod::kSgl,
    TransferMethod::kByteExpress,   TransferMethod::kByteExpressOoo,
    TransferMethod::kBandSlim,
};

/// A short deterministic run touching all five transfer methods, then a
/// flush so telemetry totals are final.
void run_five_methods(Testbed& bed) {
  ByteVec payload(320);
  fill_pattern(payload, 13);
  for (const TransferMethod method : kAllMethods) {
    for (int i = 0; i < 3; ++i) {
      auto completion = bed.raw_write(payload, method, 1);
      ASSERT_TRUE(completion.is_ok() && completion->ok());
    }
  }
  bed.telemetry().flush(bed.clock().now());
}

TEST(PerfettoTest, FiveMethodRunPassesStructuralCheck) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);
  run_five_methods(bed);

  const std::string json =
      obs::to_perfetto_json(bed.trace().snapshot(), bed.telemetry().samples(),
                            bed.telemetry().link_rate());
  const PerfettoCheck check = obs::check_perfetto_json(json);
  EXPECT_TRUE(check.ok()) << check.error;
  EXPECT_GT(check.slice_events, 0u);
  EXPECT_GT(check.instant_events, 0u) << "doorbell instants missing";
  EXPECT_GT(check.counter_events, 0u) << "telemetry counter tracks missing";
  EXPECT_GE(check.metadata_events, 3u) << "host/device/link process names";
}

// ByteExpress-R: an inline read renders its device-side chunk burst as a
// "read_chunk" slice on the device track, and the export still passes
// the structural checker (monotonic, properly nested, valid JSON).
TEST(PerfettoTest, InlineReadRendersReadChunkSlice) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);
  ByteVec payload(320);
  fill_pattern(payload, 13);
  auto seeded = bed.raw_write(payload, TransferMethod::kPrp, 1);
  ASSERT_TRUE(seeded.is_ok() && seeded->ok());
  ByteVec out(payload.size());
  driver::IoRequest read;
  read.opcode = nvme::IoOpcode::kVendorRawRead;
  read.read_buffer = out;
  auto completion = bed.driver().execute(read, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  bed.telemetry().flush(bed.clock().now());

  const std::string json =
      obs::to_perfetto_json(bed.trace().snapshot(), bed.telemetry().samples(),
                            bed.telemetry().link_rate());
  const PerfettoCheck check = obs::check_perfetto_json(json);
  EXPECT_TRUE(check.ok()) << check.error;
  EXPECT_GT(check.slice_events, 0u);
  EXPECT_NE(json.find("\"read_chunk\""), std::string::npos)
      << "inline read chunk burst missing from the export";
}

TEST(PerfettoTest, SameSeedRunsRenderByteIdentical) {
  std::string renders[2];
  for (std::string& render : renders) {
    core::TestbedConfig config = test::small_testbed_config();
    config.telemetry.window_ns = 2'000;
    Testbed bed(config);
    run_five_methods(bed);
    render = obs::to_perfetto_json(bed.trace().snapshot(),
                                   bed.telemetry().samples(),
                                   bed.telemetry().link_rate());
  }
  EXPECT_EQ(renders[0], renders[1]);
}

// Tenant attribution must survive the export: submit slices carry the
// owning tenant id in their args, and each registered tenant's per-window
// service deltas render as a tenant.t<id>.service counter track.
TEST(PerfettoTest, TenantTagsSurviveExport) {
  core::TestbedConfig config = test::small_testbed_config(2);
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);

  tenant::SchedulerConfig sched_config;
  tenant::TenantConfig t1;
  t1.id = 1;
  t1.hw_qid = 1;
  tenant::TenantConfig t2;
  t2.id = 2;
  t2.hw_qid = 2;
  sched_config.tenants = {t1, t2};
  tenant::TenantScheduler sched(bed, sched_config);
  // Drop the admin-setup trace (queue creation also records submits) so
  // the submit events below are exactly the tenant commands.
  bed.reset_counters();

  ByteVec payload(320);
  fill_pattern(payload, 13);
  for (int i = 0; i < 3; ++i) {
    for (const std::uint16_t tenant : {1, 2}) {
      auto completion = sched.execute_write(tenant, ConstByteSpan(payload),
                                            TransferMethod::kByteExpress);
      ASSERT_TRUE(completion.is_ok() && completion->ok());
    }
  }
  bed.telemetry().flush(bed.clock().now());

  const std::string json =
      obs::to_perfetto_json(bed.trace().snapshot(), bed.telemetry().samples(),
                            bed.telemetry().link_rate());
  const PerfettoCheck check = obs::check_perfetto_json(json);
  EXPECT_TRUE(check.ok()) << check.error;
  // Slice args attribute commands to their tenants.
  EXPECT_NE(json.find("\"tenant\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\": 2"), std::string::npos);
  // Per-tenant service counter tracks, one per registered tenant.
  EXPECT_NE(json.find("tenant.t1.service"), std::string::npos);
  EXPECT_NE(json.find("tenant.t2.service"), std::string::npos);
  EXPECT_NE(json.find("\"admitted\": "), std::string::npos);
  // Untenanted runs must not fabricate an attribution: every submit event
  // in this scenario belongs to tenant 1 or 2, and the trace itself says
  // so (checked against the raw events, not just the JSON text).
  int tagged_submits = 0;
  for (const obs::TraceEvent& event : bed.trace().snapshot()) {
    if (event.stage == obs::TraceStage::kSubmit) {
      EXPECT_TRUE(event.tenant == 1 || event.tenant == 2);
      ++tagged_submits;
    }
  }
  EXPECT_EQ(tagged_submits, 6);
}

TEST(PerfettoCheckerTest, RejectsMalformedTraces) {
  // No traceEvents array at all.
  EXPECT_FALSE(obs::check_perfetto_json("{}").ok());

  // Slice whose pid/tid were never introduced by metadata.
  EXPECT_FALSE(obs::check_perfetto_json(
                   R"({"traceEvents":[)"
                   R"({"name":"a","ph":"X","ts":1.0,"dur":2.0,)"
                   R"("pid":1,"tid":1}]})")
                   .ok());

  const std::string meta =
      R"({"name":"process_name","ph":"M","pid":1,)"
      R"("args":{"name":"host"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
      R"("args":{"name":"q1"}})";

  // X event without dur.
  EXPECT_FALSE(obs::check_perfetto_json(
                   R"({"traceEvents":[)" + meta +
                   R"(,{"name":"a","ph":"X","ts":1.0,"pid":1,"tid":1}]})")
                   .ok());

  // Event without a phase.
  EXPECT_FALSE(obs::check_perfetto_json(
                   R"({"traceEvents":[)" + meta +
                   R"(,{"name":"a","ts":1.0,"pid":1,"tid":1}]})")
                   .ok());

  // Unbalanced B without E.
  EXPECT_FALSE(obs::check_perfetto_json(
                   R"({"traceEvents":[)" + meta +
                   R"(,{"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1}]})")
                   .ok());

  // Non-monotonic slice timestamps.
  EXPECT_FALSE(
      obs::check_perfetto_json(
          R"({"traceEvents":[)" + meta +
          R"(,{"name":"a","ph":"X","ts":5.0,"dur":1.0,"pid":1,"tid":1})" +
          R"(,{"name":"b","ph":"X","ts":1.0,"dur":1.0,"pid":1,"tid":1}]})")
          .ok());

  // And the balanced/complete variant of the same skeleton passes.
  const PerfettoCheck good = obs::check_perfetto_json(
      R"({"traceEvents":[)" + meta +
      R"(,{"name":"a","ph":"X","ts":1.0,"dur":1.0,"pid":1,"tid":1}]})");
  EXPECT_TRUE(good.ok()) << good.error;
  EXPECT_EQ(good.slice_events, 1u);
  EXPECT_EQ(good.metadata_events, 2u);
}

TEST(PrometheusTest, SnapshotExpositionLintsClean) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);
  run_five_methods(bed);

  const std::string text =
      obs::to_prometheus_text(bed.metrics().snapshot(), &bed.telemetry());
  const PrometheusLint lint = obs::lint_prometheus(text);
  EXPECT_TRUE(lint.ok()) << lint.error;
  EXPECT_GT(lint.families, 0u);
  EXPECT_GT(lint.samples, lint.families);

  EXPECT_NE(text.find("# TYPE bx_telemetry_windows_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("bx_link_wire_bytes_total"), std::string::npos);
  EXPECT_NE(text.find("bx_payload_bytes_total"), std::string::npos);
  EXPECT_NE(text.find("bx_queue_sq_occupancy"), std::string::npos);

  // The telemetry-less variant is also valid exposition.
  const PrometheusLint bare =
      obs::lint_prometheus(obs::to_prometheus_text(bed.metrics().snapshot(),
                                                   /*telemetry=*/nullptr));
  EXPECT_TRUE(bare.ok()) << bare.error;
}

TEST(PrometheusLintTest, RejectsMalformedExposition) {
  // Sample without a TYPE header.
  EXPECT_FALSE(obs::lint_prometheus("bx_orphan_total 3\n").ok());

  // Invalid metric name (leading digit).
  EXPECT_FALSE(
      obs::lint_prometheus("# TYPE 9bad counter\n9bad 1\n").ok());

  // Duplicate sample line.
  EXPECT_FALSE(obs::lint_prometheus("# TYPE bx_x counter\n"
                                    "bx_x 1\n"
                                    "bx_x 2\n")
                   .ok());

  // Well-formed minimal family passes.
  const PrometheusLint good = obs::lint_prometheus(
      "# HELP bx_x a counter\n# TYPE bx_x counter\nbx_x 1\n");
  EXPECT_TRUE(good.ok()) << good.error;
  EXPECT_EQ(good.families, 1u);
  EXPECT_EQ(good.samples, 1u);
}

TEST(MetricsTest, ExposedGaugeRoundTripsThroughSnapshotAndJson) {
  obs::MetricsRegistry registry;
  obs::Gauge depth;
  registry.expose_gauge("driver.q1.sq_occupancy", &depth);
  depth.set(17);
  EXPECT_EQ(registry.gauge_value("driver.q1.sq_occupancy"), 17);

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  bool found = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "driver.q1.sq_occupancy") {
      found = true;
      EXPECT_EQ(value, 17);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(registry.to_json().find("\"driver.q1.sq_occupancy\": 17"),
            std::string::npos);
}

TEST(MetricsTest, StripedHistogramKeepsExactCountsUnderThreads) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram("test.latency");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.record(std::uint64_t(t) * kPerThread + i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(histogram.count(), std::uint64_t(kThreads) * kPerThread);
  const LatencyHistogram merged = histogram.snapshot();
  EXPECT_EQ(merged.count(), std::uint64_t(kThreads) * kPerThread);
}

}  // namespace
}  // namespace bx
