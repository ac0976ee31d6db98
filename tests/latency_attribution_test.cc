// Queue-depth-aware latency attribution: Completion::breakdown decomposes
// latency_ns into the eight obs::WaitSegment segments with ZERO residual —
// at QD 1, 8 and 32, for every transfer method, on the direct, batched
// and tenant submission paths, and for backdated arrivals.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "obs/attribution.h"
#include "obs/invariants.h"
#include "tenant/scheduler.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::Completion;
using driver::IoRequest;
using driver::TransferMethod;
using obs::BreakdownSample;
using obs::LatencyBreakdown;
using obs::WaitSegment;

constexpr TransferMethod kAllMethods[] = {
    TransferMethod::kPrp, TransferMethod::kSgl, TransferMethod::kByteExpress,
    TransferMethod::kByteExpressOoo, TransferMethod::kBandSlim};

ByteVec patterned(std::uint32_t size) {
  ByteVec payload(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    payload[i] = static_cast<Byte>(i * 11 + 3);
  }
  return payload;
}

IoRequest raw_write_request(ConstByteSpan payload, TransferMethod method) {
  IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.write_data = payload;
  request.method = method;
  return request;
}

void expect_no_violations(const std::vector<BreakdownSample>& samples,
                          const std::string& context) {
  const std::vector<std::string> violations =
      obs::check_breakdown_invariants(samples);
  EXPECT_TRUE(violations.empty())
      << context << ": " << violations.size() << " violation(s), first: "
      << (violations.empty() ? "" : violations.front());
}

BreakdownSample sample_of(const Completion& completion) {
  return BreakdownSample{completion.breakdown, completion.latency_ns};
}

// ---------------------------------------------------------------------------
// Direct path.

TEST(LatencyAttributionDirect, Qd1AllMethodsZeroResidual) {
  for (const TransferMethod method : kAllMethods) {
    Testbed bed(test::small_testbed_config());
    std::vector<BreakdownSample> samples;
    for (const std::uint32_t size : {1u, 48u, 130u, 1024u}) {
      const ByteVec payload = patterned(size);
      auto completion = bed.raw_write(payload, method);
      ASSERT_TRUE(completion.is_ok() && completion->ok());
      EXPECT_GT(completion->latency_ns, 0u);
      // Direct QD1: no gate is attached, no origin_ns is backdated and
      // the SQ can never be full, so those waits are identically zero and
      // the window is service-dominated.
      EXPECT_EQ(completion->breakdown.of(WaitSegment::kGateWait), 0u);
      EXPECT_EQ(completion->breakdown.of(WaitSegment::kRingWait), 0u);
      EXPECT_EQ(completion->breakdown.of(WaitSegment::kSlotWait), 0u);
      EXPECT_GT(completion->breakdown.of(WaitSegment::kService), 0u);
      samples.push_back(sample_of(*completion));
    }
    expect_no_violations(samples, std::string("direct qd1 method ") +
                                      std::to_string(static_cast<int>(method)));
  }
}

// At QD1 on one queue no command waits for arbitration, so the
// controller's device report accounts for all of a write's device time,
// traced or not: four writes in a row get identical breakdowns with
// arb == 0, and only BandSlim's fragment assembly and an OOO command's
// wait for its chunks book reassembly.
TEST(LatencyAttributionDirect, Qd1WritesBookNoArbitrationTracedOrNot) {
  for (const bool traced : {true, false}) {
    for (const TransferMethod method : kAllMethods) {
      for (const std::uint32_t size : {48u, 200u, 1024u}) {
        SCOPED_TRACE(testing::Message()
                     << "traced " << traced << " method "
                     << static_cast<int>(method) << " size " << size);
        core::TestbedConfig config = test::small_testbed_config(1);
        config.trace_enabled = traced;
        Testbed bed(config);
        const ByteVec payload = patterned(size);
        std::vector<LatencyBreakdown> writes;
        for (int i = 0; i < 4; ++i) {
          auto completion = bed.raw_write(payload, method);
          ASSERT_TRUE(completion.is_ok() && completion->ok());
          writes.push_back(completion->breakdown);
        }
        for (std::size_t i = 1; i < writes.size(); ++i) {
          EXPECT_EQ(writes[i].ns, writes[0].ns) << "write " << i;
        }
        EXPECT_EQ(writes[0].of(WaitSegment::kArbWait), 0u);
        const bool reassembles = method == TransferMethod::kBandSlim ||
                                 method == TransferMethod::kByteExpressOoo;
        EXPECT_EQ(writes[0].of(WaitSegment::kReassembly) > 0, reassembles);
        if (size == 200 && method == TransferMethod::kBandSlim) {
          EXPECT_EQ(writes[0].of(WaitSegment::kReassembly), 11'724u);
        }
        if (size == 200 && method == TransferMethod::kByteExpressOoo) {
          EXPECT_EQ(writes[0].of(WaitSegment::kReassembly), 10'955u);
        }
      }
    }
  }
}

// A completion an injected delay holds (shorter than the command timeout,
// so no Abort) books the hold as arb and keeps the service, reassembly
// and delivery of an undelayed write, traced or not.
TEST(LatencyAttributionDirect, DelayedCompletionBooksTheHoldAsArb) {
  constexpr Nanoseconds kDelay = 20'000;
  for (const bool traced : {true, false}) {
    for (const TransferMethod method :
         {TransferMethod::kPrp, TransferMethod::kByteExpress}) {
      SCOPED_TRACE(testing::Message() << "traced " << traced << " method "
                                      << static_cast<int>(method));
      core::TestbedConfig config = test::small_testbed_config(1);
      config.trace_enabled = traced;
      config.faults.completion_delay = 1.0;  // forces injector construction
      Testbed bed(config);
      fault::FaultPolicy policy;
      policy.delay_ns = kDelay;
      bed.fault_injector()->set_policy(policy);
      const ByteVec payload = patterned(200);
      auto undelayed = bed.raw_write(payload, method);
      ASSERT_TRUE(undelayed.is_ok() && undelayed->ok());
      bed.fault_injector()->arm(fault::FaultKind::kCompletionDelay);
      auto delayed = bed.raw_write(payload, method);
      ASSERT_TRUE(delayed.is_ok() && delayed->ok());
      EXPECT_EQ(bed.metrics().counter_value("ctrl.completions_delayed"), 1u);
      EXPECT_EQ(bed.metrics().counter_value("driver.timeouts"), 0u);

      const LatencyBreakdown& want = undelayed->breakdown;
      const LatencyBreakdown& got = delayed->breakdown;
      EXPECT_EQ(want.of(WaitSegment::kArbWait), 0u);
      EXPECT_GE(got.of(WaitSegment::kArbWait), kDelay);
      EXPECT_EQ(got.of(WaitSegment::kArbWait),
                delayed->latency_ns - undelayed->latency_ns);
      for (const WaitSegment segment :
           {WaitSegment::kService, WaitSegment::kReassembly,
            WaitSegment::kDelivery}) {
        EXPECT_EQ(got.of(segment), want.of(segment))
            << obs::wait_segment_name(segment);
      }
    }
  }
}

TEST(LatencyAttributionDirect, DepthSweepZeroResidual) {
  for (const std::uint32_t depth : {1u, 8u, 32u}) {
    for (const TransferMethod method : kAllMethods) {
      Testbed bed(test::small_testbed_config());
      std::vector<ByteVec> payloads;
      std::vector<IoRequest> requests;
      payloads.reserve(depth);
      requests.reserve(depth);
      for (std::uint32_t i = 0; i < depth; ++i) {
        payloads.push_back(patterned(48 + i * 16));
      }
      for (std::uint32_t i = 0; i < depth; ++i) {
        requests.push_back(raw_write_request(payloads[i], method));
      }

      std::vector<driver::Submitted> handles;
      handles.reserve(depth);
      for (const IoRequest& request : requests) {
        auto submitted = bed.driver().submit(request, 1);
        ASSERT_TRUE(submitted.is_ok()) << submitted.status().to_string();
        handles.push_back(*submitted);
      }
      std::vector<BreakdownSample> samples;
      for (const driver::Submitted& handle : handles) {
        auto completion = bed.driver().wait(handle);
        ASSERT_TRUE(completion.is_ok() && completion->ok());
        samples.push_back(sample_of(*completion));
      }
      expect_no_violations(
          samples, "depth " + std::to_string(depth) + " method " +
                       std::to_string(static_cast<int>(method)));
    }
  }
}

TEST(LatencyAttributionDirect, SqBackpressureBooksSlotWait) {
  // Queue depth 8 (7 usable slots) with 32 sequential submits: the later
  // submits must wait for slots, and the wait lands in kSlotWait while the
  // residual still telescopes to zero.
  Testbed bed(test::small_testbed_config(2, 8));
  std::vector<ByteVec> payloads;
  for (std::uint32_t i = 0; i < 32; ++i) payloads.push_back(patterned(64));
  std::vector<driver::Submitted> handles;
  std::vector<IoRequest> requests;
  requests.reserve(32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    requests.push_back(
        raw_write_request(payloads[i], TransferMethod::kByteExpress));
  }
  for (const IoRequest& request : requests) {
    auto submitted = bed.driver().submit(request, 1);
    ASSERT_TRUE(submitted.is_ok()) << submitted.status().to_string();
    handles.push_back(*submitted);
  }
  std::vector<BreakdownSample> samples;
  std::uint64_t slot_wait_total = 0;
  for (const driver::Submitted& handle : handles) {
    auto completion = bed.driver().wait(handle);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    slot_wait_total += completion->breakdown.of(WaitSegment::kSlotWait);
    samples.push_back(sample_of(*completion));
  }
  expect_no_violations(samples, "slot backpressure");
  EXPECT_GT(slot_wait_total, 0u);
}

// ---------------------------------------------------------------------------
// Batched path (doorbell coalescing).

TEST(LatencyAttributionBatch, DepthSweepZeroResidual) {
  for (const std::uint32_t depth : {1u, 8u, 32u}) {
    Testbed bed(test::small_testbed_config());
    std::vector<ByteVec> payloads;
    std::vector<IoRequest> requests;
    for (std::uint32_t i = 0; i < depth; ++i) {
      payloads.push_back(patterned(48 + 8 * i));
    }
    for (std::uint32_t i = 0; i < depth; ++i) {
      requests.push_back(
          raw_write_request(payloads[i], TransferMethod::kByteExpress));
    }
    auto completions = bed.driver().execute_batch(requests, 1);
    ASSERT_TRUE(completions.is_ok()) << completions.status().to_string();
    std::vector<BreakdownSample> samples;
    std::uint64_t bell_hold_total = 0;
    for (const Completion& completion : *completions) {
      ASSERT_TRUE(completion.ok());
      bell_hold_total += completion.breakdown.of(WaitSegment::kBellHold);
      samples.push_back(sample_of(completion));
    }
    expect_no_violations(samples, "batch depth " + std::to_string(depth));
    if (depth >= 8) {
      // A coalesced batch holds early SQEs under the shared doorbell while
      // the rest of the run is pushed: the hold must be visible.
      EXPECT_GT(bell_hold_total, 0u) << "depth " << depth;
    }
  }
}

TEST(LatencyAttributionBatch, MixedMethodBatchZeroResidual) {
  Testbed bed(test::small_testbed_config());
  std::vector<ByteVec> payloads;
  std::vector<IoRequest> requests;
  for (std::uint32_t i = 0; i < 20; ++i) {
    payloads.push_back(patterned(40 + 32 * i));
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    requests.push_back(
        raw_write_request(payloads[i], kAllMethods[i % 5]));
  }
  auto completions = bed.driver().execute_batch(requests, 1);
  ASSERT_TRUE(completions.is_ok()) << completions.status().to_string();
  std::vector<BreakdownSample> samples;
  for (const Completion& completion : *completions) {
    ASSERT_TRUE(completion.ok());
    samples.push_back(sample_of(completion));
  }
  expect_no_violations(samples, "mixed-method batch");
}

// ---------------------------------------------------------------------------
// Arrival backlog: a request stamped with an earlier IoRequest::origin_ns
// (open-loop arrivals) books the time before driver entry as kRingWait.

TEST(LatencyAttributionBatch, BackdatedOriginBooksRingWait) {
  Testbed bed(test::small_testbed_config());
  std::vector<ByteVec> payloads;
  for (std::uint32_t i = 0; i < 32; ++i) payloads.push_back(patterned(96));

  std::vector<BreakdownSample> samples;
  std::uint64_t ring_wait_total = 0;
  for (std::uint32_t group = 0; group < 4; ++group) {
    // Each request arrives 250 ns after the previous one, and the group of
    // 8 enters the driver as one batch after the last arrival.
    std::vector<IoRequest> requests;
    for (std::uint32_t i = 0; i < 8; ++i) {
      IoRequest request = raw_write_request(payloads[group * 8 + i],
                                            TransferMethod::kByteExpress);
      request.origin_ns = bed.clock().now();
      requests.push_back(request);
      bed.clock().advance(250);
    }
    auto completions = bed.driver().execute_batch(requests, 1);
    ASSERT_TRUE(completions.is_ok()) << completions.status().to_string();
    for (const Completion& completion : *completions) {
      ASSERT_TRUE(completion.ok());
      ring_wait_total += completion.breakdown.of(WaitSegment::kRingWait);
      samples.push_back(sample_of(completion));
    }
  }
  ASSERT_EQ(samples.size(), 32u);
  expect_no_violations(samples, "backdated batches");
  // The backlog before driver entry is attributed, not lost.
  EXPECT_GT(ring_wait_total, 0u);

  // An origin in the future is ignored: the window starts at driver entry.
  IoRequest future =
      raw_write_request(payloads[0], TransferMethod::kByteExpress);
  future.origin_ns = bed.clock().now() + 1'000'000;
  auto completion = bed.driver().execute(future, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_EQ(completion->breakdown.of(WaitSegment::kRingWait), 0u);
  expect_no_violations({sample_of(*completion)}, "future origin");
}

// ---------------------------------------------------------------------------
// Tenant path (virtual queues + admission gate + WRR arbitration).

TEST(LatencyAttributionTenant, TenantWritesZeroResidualAndHistograms) {
  core::TestbedConfig config = test::small_testbed_config();
  Testbed bed(config);

  tenant::SchedulerConfig sched_config;
  tenant::TenantConfig alpha;
  alpha.id = 1;
  alpha.hw_qid = 1;
  alpha.weight = 4;
  tenant::TenantConfig beta;
  beta.id = 2;
  beta.hw_qid = 2;
  beta.weight = 1;
  sched_config.tenants = {alpha, beta};
  tenant::TenantScheduler scheduler(bed, sched_config);

  std::vector<BreakdownSample> samples;
  for (std::uint32_t i = 0; i < 24; ++i) {
    const std::uint16_t tenant = (i % 2 == 0) ? 1 : 2;
    const ByteVec payload = patterned(64 + 8 * (i % 5));
    auto completion = scheduler.execute_write(tenant, payload,
                                              TransferMethod::kByteExpress);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    samples.push_back(sample_of(*completion));
  }
  expect_no_violations(samples, "tenant path");

  // Per-tenant wait histograms materialize lazily on first attribution.
  EXPECT_EQ(bed.metrics().histogram("tenant.t1.wait.service").count(), 12u);
  EXPECT_EQ(bed.metrics().histogram("tenant.t2.wait.service").count(), 12u);
  EXPECT_EQ(bed.metrics().histogram("tenant.t1.wait.arb").count(), 12u);
}

// ---------------------------------------------------------------------------
// Per-method wait histograms and telemetry surfacing.

TEST(LatencyAttributionSurfacing, MethodHistogramsAndTelemetryWaits) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.enabled = true;
  config.telemetry.window_ns = 100'000;
  Testbed bed(config);
  std::uint64_t latency_sum = 0;
  for (std::uint32_t i = 0; i < 10; ++i) {
    const ByteVec payload = patterned(128);
    auto completion = bed.raw_write(payload, TransferMethod::kByteExpress);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    latency_sum += completion->latency_ns;
  }
  EXPECT_EQ(bed.metrics().histogram("driver.wait.byteexpress.service").count(),
            10u);
  EXPECT_EQ(bed.metrics().histogram("driver.wait.byteexpress.delivery").count(),
            10u);
  EXPECT_EQ(bed.metrics().histogram("driver.wait.prp.service").count(), 0u);

  bed.telemetry().flush(bed.clock().now());
  std::uint64_t wait_count = 0;
  std::uint64_t service_ns = 0;
  std::uint64_t segment_sum = 0;
  for (const obs::TelemetrySample& sample : bed.telemetry().samples()) {
    wait_count += sample.wait_count;
    service_ns += sample.wait_ns[static_cast<std::size_t>(
        WaitSegment::kService)];
    for (const std::uint64_t v : sample.wait_ns) segment_sum += v;
  }
  EXPECT_EQ(wait_count, 10u);
  EXPECT_GT(service_ns, 0u);
  // Telemetry aggregates completed breakdowns, so the windowed segment sum
  // equals the sum of the attributed latencies (additivity, end to end).
  EXPECT_EQ(segment_sum, latency_sum);
}

}  // namespace
}  // namespace bx
