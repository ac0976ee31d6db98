// Adversarial tenant-isolation harness.
//
// run_isolation_sweep() measures how much a deliberately misbehaving
// tenant can hurt a well-behaved one when both are virtualized onto the
// same testbed. Two tenants share one controller:
//
//   * the VICTIM: modest fixed-size inline writes on its own hardware
//     queue, no budgets exceeded — the tenant whose latency the QoS
//     stack promises to protect;
//   * the AGGRESSOR: a submission flood of randomized writes on a second
//     hardware queue, a fraction of them oversized past its per-command
//     admission cap, optionally under a seeded command-fault storm
//     confined to its queue (FaultPolicy::qid_filter), with an
//     inline-slot budget and token-bucket rate limit standing between
//     it and the shared rings.
//
// The sweep runs the same seeded victim schedule twice — solo (the
// aggressor registered but silent) and contended — on two freshly built
// testbeds with identical configuration, then reports per-tenant
// latency percentiles, admission counters, controller WRR grants and
// the p99 interference ratio (contended p99 / solo p99). The isolation
// acceptance bounds (p99 within 2x solo, throughput within 20% of the
// WRR share) are asserted by tests/tenant_isolation_test.cc; the
// harness itself enforces only structural invariants:
//
//   1. Admission conservation — per tenant, gate admissions + gate
//      rejections account for every request that reached the gate, and
//      every admitted command completes (completions == admitted).
//   2. No budget leaks — both tenants' in-flight inline-slot gauges
//      read zero once the sweep drains.
//   3. Fault confinement — with the storm aimed at the aggressor's
//      queue, the victim sees zero error completions.
//   4. Fault accounting — faults.injected == faults.recovered +
//      faults.degraded + faults.failed (the docs/FAULTS.md equality).
//   5. Telemetry reconciliation — per-tenant window deltas sum exactly
//      to the cumulative admission counters after flush().
//
// Everything is driven from one OS thread with one seeded Rng, so a
// fixed seed reproduces byte-identical results (asserted across seeds
// by the determinism test).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "driver/request.h"
#include "fault/fault.h"

namespace bx::tenant {

struct IsolationOptions {
  std::uint64_t seed = 0x7e2a47;
  std::uint32_t rounds = 12;
  /// Victim ops submitted per round (fixed-size writes).
  std::uint32_t victim_ops_per_round = 8;
  /// Aggressor ops submitted per round (the submission flood).
  std::uint32_t aggressor_ops_per_round = 32;
  std::uint32_t victim_payload_bytes = 512;
  /// Aggressor in-cap payloads are drawn uniformly in [64, this].
  std::uint32_t aggressor_payload_bytes = 1024;
  /// Probability an aggressor op is oversized (oversize_bytes, above the
  /// admission cap — rejected at the gate, never touching the rings).
  double oversize_probability = 0.25;
  std::uint32_t oversize_bytes = 8192;
  driver::TransferMethod method = driver::TransferMethod::kByteExpress;
  /// When set, every victim op (probe and rounds) is an inline READ of
  /// victim_payload_bytes instead of a write — the ByteExpress-R
  /// reader-tenant scenario: the victim's payloads travel device-to-host
  /// through the CRC-protected completion ring while the aggressor
  /// floods the host-to-device inline path. The device scratch is
  /// seeded once, untenanted, before the probe.
  bool victim_reads = false;

  // Queueing geometry.
  std::uint32_t queue_depth = 256;
  std::uint32_t vqueue_depth = 64;

  // Arbitration (the controller's weighted round robin; an urgent
  // victim is bounded by Controller::kUrgentBurstLimit).
  std::uint32_t victim_weight = 3;
  std::uint32_t aggressor_weight = 1;
  bool victim_urgent = false;

  // Aggressor budgets (the defenses under test).
  std::uint64_t aggressor_rate_bytes_per_sec = 0;  // 0 = unlimited
  std::uint64_t aggressor_burst_bytes = 256 * 1024;
  std::uint32_t aggressor_inline_slot_budget = 64;
  std::uint32_t aggressor_payload_cap = 4096;

  /// Command-fault storm; qid_filter is forced to the aggressor's
  /// hardware queue regardless of what the caller sets. All-zero means
  /// no injector (flood-only adversary).
  fault::FaultPolicy storm{};

  // Saturation probe (0 polls disables): before the rounds, both tenants
  // stack probe_ops each and the harness steps the controller poll loop
  // exactly probe_polls times while both backlogs are non-empty — the
  // only regime in which WRR shares are observable (each queue's total
  // grants otherwise just equal its op count). The grant split over
  // those polls is reported as victim_saturated_share. Probe completions
  // are not recorded into the latency histograms, and the victim's probe
  // runs in the solo phase too so both phases see identical schedules.
  std::uint32_t probe_ops = 12;
  std::uint32_t probe_polls = 12;
  std::uint32_t probe_victim_payload_bytes = 512;
  std::uint32_t probe_aggressor_payload_bytes = 256;
};

struct IsolationTenantStats {
  std::uint16_t tenant = 0;
  /// Ops the harness attempted on the tenant's virtual queue.
  std::uint64_t ops_attempted = 0;
  /// Refused locally because the virtual queue was full.
  std::uint64_t rejected_local = 0;
  // Gate counters (cumulative over the phase).
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completions = 0;
  std::uint64_t payload_bytes = 0;
  /// Error completions recorded (per-tenant fault accounting).
  std::uint64_t errors = 0;
  /// Controller scheduling grants on the tenant's hardware queue.
  std::uint64_t hw_grants = 0;
  // Latency of recorded completions, simulated nanoseconds.
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t mean_ns = 0;
};

struct IsolationResult {
  /// First structural-invariant violation (internal error), or OK.
  Status status = Status::ok();
  std::string failure;

  /// Victim statistics from the solo phase (aggressor silent).
  IsolationTenantStats victim_solo;
  /// Contended-phase statistics.
  IsolationTenantStats victim;
  IsolationTenantStats aggressor;

  /// Contended victim p99 divided by solo victim p99 (1.0 = unharmed).
  double p99_interference = 0.0;
  /// Victim share of I/O-queue grants in the contended phase, and the
  /// share its WRR weight promises while both queues are backlogged.
  double victim_grant_share = 0.0;
  double expected_grant_share = 0.0;
  /// Victim share of the probe_polls grants taken while BOTH queues were
  /// provably backlogged (0 when the probe is disabled) — the figure the
  /// 20%-of-WRR-share acceptance bound applies to.
  double victim_saturated_share = 0.0;

  // Contended-phase fault accounting (all zero without a storm).
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t faults_degraded = 0;
  std::uint64_t faults_failed = 0;

  // Contended-phase read-path counters (driver.inline_read.*); only the
  // victim issues reads, so with victim_reads these attribute to it.
  std::uint64_t inline_read_completions = 0;
  std::uint64_t inline_read_crc_errors = 0;

  [[nodiscard]] bool ok() const noexcept { return status.is_ok(); }
};

/// Builds the two testbeds and runs both phases. Never throws; invariant
/// violations come back in the result.
IsolationResult run_isolation_sweep(const IsolationOptions& options);

}  // namespace bx::tenant
