#include "tenant/isolation.h"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/stress.h"
#include "core/testbed.h"
#include "tenant/scheduler.h"

namespace bx::tenant {

namespace {

constexpr std::uint16_t kVictimId = 1;
constexpr std::uint16_t kAggressorId = 2;
constexpr std::uint16_t kVictimQid = 1;
constexpr std::uint16_t kAggressorQid = 2;

/// One planned submission of the seeded schedule.
struct PlannedOp {
  std::uint16_t tenant = 0;
  std::uint32_t len = 0;
};

core::TestbedConfig make_config(const IsolationOptions& options) {
  // Two hardware queues (one per tenant) with the fault-sweep recovery
  // clocks, so every storm fault resolves within the run.
  core::TestbedConfig config = core::fault_recovery_config();
  config.driver.io_queue_count = 2;
  config.driver.io_queue_depth = options.queue_depth;
  config.faults = options.storm;
  // The storm is the aggressor's problem by construction: confine the
  // command-fault plane to its hardware queue (see fault/fault.h).
  config.faults.qid_filter = kAggressorQid;
  config.fault_seed = options.seed ^ 0xfa017;
  return config;
}

SchedulerConfig make_tenants(const IsolationOptions& options) {
  TenantConfig victim;
  victim.id = kVictimId;
  victim.name = "victim";
  victim.hw_qid = kVictimQid;
  victim.weight = options.victim_weight;
  victim.urgent = options.victim_urgent;

  TenantConfig aggressor;
  aggressor.id = kAggressorId;
  aggressor.name = "aggressor";
  aggressor.hw_qid = kAggressorQid;
  aggressor.weight = options.aggressor_weight;
  aggressor.rate_bytes_per_sec = options.aggressor_rate_bytes_per_sec;
  aggressor.burst_bytes = options.aggressor_burst_bytes;
  aggressor.inline_slot_budget = options.aggressor_inline_slot_budget;
  aggressor.max_payload_bytes = options.aggressor_payload_cap;

  SchedulerConfig sched;
  sched.tenants = {victim, aggressor};
  sched.vqueue_depth = options.vqueue_depth;
  return sched;
}

struct PhaseOutcome {
  Status status = Status::ok();
  std::string failure;
  IsolationTenantStats victim;
  IsolationTenantStats aggressor;
  std::uint64_t io_grants_total = 0;
  double saturated_share = 0.0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t faults_degraded = 0;
  std::uint64_t faults_failed = 0;
  std::uint64_t inline_read_completions = 0;
  std::uint64_t inline_read_crc_errors = 0;
};

void fill_payload(Rng& rng, ByteVec& payload, std::uint32_t len) {
  payload.resize(len);
  const auto fill = static_cast<Byte>(rng.next());
  for (std::uint32_t b = 0; b < len; ++b) {
    payload[b] = static_cast<Byte>(fill + b * 7);
  }
}

/// Runs one phase (the aggressor submits only when `with_aggressor`) on
/// a freshly built testbed. The Rng consumption is identical in both
/// phases for the victim's draws: the schedule plans every op first.
PhaseOutcome run_phase(const IsolationOptions& options, bool with_aggressor) {
  PhaseOutcome out;
  const auto fail = [&out](std::string message) {
    if (!out.status.is_ok()) return;  // keep the first violation
    out.status = internal_error(message);
    out.failure = std::move(message);
  };

  core::Testbed bed(make_config(options));
  TenantScheduler sched(bed, make_tenants(options));
  Rng rng(options.seed);
  ByteVec payload;

  std::uint64_t attempted[2] = {0, 0};  // [victim, aggressor]

  // Read-mode destination buffers. VirtualQueue does not own read
  // buffers, so each one must stay at a stable address until its
  // completion drains; a deque never relocates elements and is cleared
  // only after drain_all() returns.
  std::deque<ByteVec> read_buffers;

  // Submits one victim op: a write of the prepared payload, or — in
  // reader-victim mode — an inline read of `len` bytes.
  const auto submit_victim = [&](std::uint32_t len) {
    VirtualQueue& vq = sched.vqueue(kVictimId);
    if (!options.victim_reads) {
      return vq.submit_write(ConstByteSpan(payload), options.method);
    }
    read_buffers.emplace_back(len);
    driver::IoRequest request;
    request.opcode = nvme::IoOpcode::kVendorRawRead;
    request.read_buffer = ByteSpan(read_buffers.back());
    request.method = options.method;
    return vq.submit(std::move(request));
  };

  if (options.victim_reads) {
    // Seed the device scratch so victim reads have data to return. The
    // write is untenanted (bypasses the gate) and happens before the
    // probe, so it perturbs neither phase's schedule nor its counters.
    Rng seed_rng(options.seed ^ 0x5eed);
    fill_payload(seed_rng, payload,
                 std::max(options.victim_payload_bytes,
                          options.probe_victim_payload_bytes));
    const auto seeded =
        bed.raw_write(ConstByteSpan(payload), options.method, kVictimQid);
    if (!seeded.is_ok()) {
      fail("reader-victim scratch seed failed: " +
           seeded.status().to_string());
    }
  }

  // Retires every in-flight command of both tenants, recording latencies
  // only when `record` is set (the probe is excluded from percentiles).
  // Only the aggressor may resolve to a surfaced kResourceExhausted (a
  // retry starved by its own budgets); anything else is a violation.
  const auto drain_all = [&](bool record) {
    for (std::uint16_t tenant : {kVictimId, kAggressorId}) {
      VirtualQueue& vq = sched.vqueue(tenant);
      std::vector<driver::Completion> completions;
      while (vq.in_flight() > 0) {
        const Status drained = vq.drain(&completions);
        if (drained.is_ok()) break;
        // Keep draining — the remaining commands still owe their gate
        // releases.
        if (tenant == kVictimId ||
            drained.code() != StatusCode::kResourceExhausted) {
          fail("tenant " + std::to_string(tenant) +
               " drain failed: " + drained.to_string());
          break;
        }
      }
      if (record) {
        for (const driver::Completion& completion : completions) {
          sched.record(tenant, completion);
        }
      }
    }
  };

  // ---- saturation probe (see IsolationOptions) -------------------------
  double saturated_share = 0.0;
  if (options.probe_polls > 0 && options.probe_ops > 0) {
    Rng probe_rng(options.seed ^ 0x9906);
    for (std::uint32_t i = 0;
         i < options.probe_ops && out.status.is_ok(); ++i) {
      fill_payload(probe_rng, payload, options.probe_victim_payload_bytes);
      ++attempted[kVictimId - 1];
      auto victim_op = submit_victim(options.probe_victim_payload_bytes);
      if (!victim_op.is_ok()) {
        fail("victim probe submit failed: " + victim_op.status().to_string());
      }
      // Drawn in both phases (identical victim schedule), submitted only
      // when the aggressor is present.
      fill_payload(probe_rng, payload, options.probe_aggressor_payload_bytes);
      if (!with_aggressor) continue;
      ++attempted[kAggressorId - 1];
      auto aggressor_op = sched.vqueue(kAggressorId).submit_write(
          ConstByteSpan(payload), options.method);
      if (!aggressor_op.is_ok() &&
          aggressor_op.status().code() != StatusCode::kResourceExhausted) {
        fail("aggressor probe submit failed: " +
             aggressor_op.status().to_string());
      }
    }
    // Step the arbiter while both backlogs are provably non-empty: the
    // grant split over these polls IS the enforced WRR share. Direct
    // poll_once() is safe here — the phase is single-threaded, so no
    // other thread contends for the firmware.
    const std::uint64_t victim_before = bed.controller().grants(kVictimQid);
    const std::uint64_t aggressor_before =
        bed.controller().grants(kAggressorQid);
    for (std::uint32_t poll = 0; poll < options.probe_polls; ++poll) {
      (void)bed.controller().poll_once();
    }
    const std::uint64_t victim_grants =
        bed.controller().grants(kVictimQid) - victim_before;
    const std::uint64_t aggressor_grants =
        bed.controller().grants(kAggressorQid) - aggressor_before;
    if (victim_grants + aggressor_grants > 0) {
      saturated_share = static_cast<double>(victim_grants) /
                        static_cast<double>(victim_grants + aggressor_grants);
    }
    drain_all(/*record=*/false);
    read_buffers.clear();
  }
  for (std::uint32_t round = 0;
       round < options.rounds && out.status.is_ok(); ++round) {
    // Plan the round: victim ops, then the aggressor flood, then one
    // deterministic shuffle so submission order interleaves.
    std::vector<PlannedOp> ops;
    for (std::uint32_t i = 0; i < options.victim_ops_per_round; ++i) {
      ops.push_back({kVictimId, options.victim_payload_bytes});
    }
    for (std::uint32_t i = 0; i < options.aggressor_ops_per_round; ++i) {
      const bool oversized = rng.next_bool(options.oversize_probability);
      const std::uint32_t len =
          oversized ? options.oversize_bytes
                    : static_cast<std::uint32_t>(rng.next_in(
                          64, std::max<std::uint32_t>(
                                  64, options.aggressor_payload_bytes)));
      // Planned (and drawn) in both phases so the victim's schedule is
      // identical; only submitted in the contended one.
      ops.push_back({kAggressorId, len});
    }
    for (std::size_t i = ops.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(ops[i - 1], ops[rng.next_below(i)]);
    }

    for (const PlannedOp& op : ops) {
      if (op.tenant == kAggressorId && !with_aggressor) continue;
      fill_payload(rng, payload, op.len);
      ++attempted[op.tenant - 1];
      auto vcid = op.tenant == kVictimId
                      ? submit_victim(op.len)
                      : sched.vqueue(op.tenant).submit_write(
                            ConstByteSpan(payload), options.method);
      if (vcid.is_ok()) continue;
      if (vcid.status().code() != StatusCode::kResourceExhausted) {
        fail("tenant " + std::to_string(op.tenant) +
             " submit failed unexpectedly: " + vcid.status().to_string());
        break;
      }
      // Gate or virtual-queue rejection: the defense working as designed.
    }

    // Reap the round in submission order, victim first (the controller
    // keeps arbitrating over both backlogs regardless of which handle
    // is being waited on).
    drain_all(/*record=*/true);
    read_buffers.clear();
  }

  bed.telemetry().flush(bed.clock().now());

  // ---- per-tenant statistics ------------------------------------------
  const auto collect = [&](std::uint16_t tenant) {
    IsolationTenantStats stats;
    stats.tenant = tenant;
    stats.ops_attempted = attempted[tenant - 1];
    stats.rejected_local = sched.vqueue(tenant).rejected_local();
    const AdmissionController::TenantCounters* counters =
        sched.admission().counters(tenant);
    stats.admitted = counters->admitted.value();
    stats.rejected = counters->rejected.value();
    stats.completions = counters->completions.value();
    stats.payload_bytes = counters->payload_bytes.value();
    stats.errors = sched.errors(tenant);
    stats.hw_grants = sched.hw_grants(tenant);
    const LatencyHistogram latency = sched.latency(tenant);
    stats.p50_ns = latency.percentile(50.0);
    stats.p99_ns = latency.percentile(99.0);
    stats.mean_ns = static_cast<std::uint64_t>(latency.mean());
    return stats;
  };
  out.victim = collect(kVictimId);
  out.aggressor = collect(kAggressorId);
  out.io_grants_total = out.victim.hw_grants + out.aggressor.hw_grants;
  out.saturated_share = saturated_share;

  const obs::MetricsRegistry& metrics = bed.metrics();
  out.faults_injected = metrics.counter_value("faults.injected");
  out.faults_recovered = metrics.counter_value("faults.recovered");
  out.faults_degraded = metrics.counter_value("faults.degraded");
  out.faults_failed = metrics.counter_value("faults.failed");
  out.inline_read_completions =
      metrics.counter_value("driver.inline_read.completions");
  out.inline_read_crc_errors =
      metrics.counter_value("driver.inline_read.crc_errors");

  // ---- structural invariants ------------------------------------------
  for (const IsolationTenantStats* stats : {&out.victim, &out.aggressor}) {
    const std::string who = "tenant " + std::to_string(stats->tenant);
    // 1. Admission conservation. Without a storm every gate consult is
    // one harness op that passed the virtual queue; retries under a
    // storm add consults, never remove them.
    const std::uint64_t reached_gate =
        stats->ops_attempted - stats->rejected_local;
    if (options.storm.any()) {
      if (stats->admitted + stats->rejected < reached_gate) {
        fail(who + ": admitted + rejected < ops that reached the gate");
      }
    } else if (stats->admitted + stats->rejected != reached_gate) {
      fail(who + ": admitted " + std::to_string(stats->admitted) +
           " + rejected " + std::to_string(stats->rejected) +
           " != " + std::to_string(reached_gate) + " gate consults");
    }
    // 2. Gate pairing: every admission released exactly once as a
    // completion, and no inline-slot budget leaked.
    if (stats->completions != stats->admitted) {
      fail(who + ": completions " + std::to_string(stats->completions) +
           " != admitted " + std::to_string(stats->admitted));
    }
    const AdmissionController::TenantCounters* counters =
        sched.admission().counters(stats->tenant);
    if (counters->inflight_slots.value() != 0) {
      fail(who + ": inline-slot gauge leaked " +
           std::to_string(counters->inflight_slots.value()));
    }
  }
  // 3. Fault confinement: the storm is filtered to the aggressor's
  // queue, so the victim must retire every command successfully.
  if (out.victim.errors != 0) {
    fail("victim recorded " + std::to_string(out.victim.errors) +
         " error completions despite the storm being confined to the "
         "aggressor queue");
  }
  // 4. Fault accounting (docs/FAULTS.md equality).
  if (out.faults_injected != out.faults_recovered + out.faults_degraded +
                                 out.faults_failed) {
    fail("fault accounting leak: injected " +
         std::to_string(out.faults_injected) + " != recovered " +
         std::to_string(out.faults_recovered) + " + degraded " +
         std::to_string(out.faults_degraded) + " + failed " +
         std::to_string(out.faults_failed));
  }
  // 5. Telemetry reconciliation: per-tenant window deltas telescope, so
  // after flush() they sum exactly to the cumulative counters.
  std::uint64_t window_admitted[2] = {0, 0};
  std::uint64_t window_completions[2] = {0, 0};
  for (const obs::TelemetrySample& sample : bed.telemetry().samples()) {
    for (const obs::TenantWindow& window : sample.tenants) {
      if (window.tenant < 1 || window.tenant > 2) continue;
      window_admitted[window.tenant - 1] += window.admitted;
      window_completions[window.tenant - 1] += window.completions;
    }
  }
  for (const IsolationTenantStats* stats : {&out.victim, &out.aggressor}) {
    if (window_admitted[stats->tenant - 1] != stats->admitted ||
        window_completions[stats->tenant - 1] != stats->completions) {
      fail("tenant " + std::to_string(stats->tenant) +
           ": telemetry windows do not reconcile with admission counters");
    }
  }
  return out;
}

}  // namespace

IsolationResult run_isolation_sweep(const IsolationOptions& options) {
  IsolationResult result;
  if (options.rounds == 0 || options.victim_ops_per_round == 0 ||
      options.victim_payload_bytes == 0) {
    result.status = invalid_argument("bad isolation options");
    result.failure = "bad isolation options";
    return result;
  }
  if (options.victim_weight < 1 || options.aggressor_weight < 1) {
    result.status = invalid_argument("WRR weights must be >= 1");
    result.failure = "WRR weights must be >= 1";
    return result;
  }

  PhaseOutcome solo = run_phase(options, /*with_aggressor=*/false);
  if (!solo.status.is_ok()) {
    result.status = solo.status;
    result.failure = "solo phase: " + solo.failure;
    return result;
  }
  PhaseOutcome contended = run_phase(options, /*with_aggressor=*/true);
  if (!contended.status.is_ok()) {
    result.status = contended.status;
    result.failure = "contended phase: " + contended.failure;
    return result;
  }

  result.victim_solo = solo.victim;
  result.victim = contended.victim;
  result.aggressor = contended.aggressor;
  result.faults_injected = contended.faults_injected;
  result.faults_recovered = contended.faults_recovered;
  result.faults_degraded = contended.faults_degraded;
  result.faults_failed = contended.faults_failed;
  result.inline_read_completions = contended.inline_read_completions;
  result.inline_read_crc_errors = contended.inline_read_crc_errors;
  if (solo.victim.p99_ns > 0) {
    result.p99_interference = static_cast<double>(contended.victim.p99_ns) /
                              static_cast<double>(solo.victim.p99_ns);
  }
  if (contended.io_grants_total > 0) {
    result.victim_grant_share =
        static_cast<double>(contended.victim.hw_grants) /
        static_cast<double>(contended.io_grants_total);
  }
  result.victim_saturated_share = contended.saturated_share;
  result.expected_grant_share =
      static_cast<double>(options.victim_weight) /
      static_cast<double>(options.victim_weight + options.aggressor_weight);
  return result;
}

}  // namespace bx::tenant
