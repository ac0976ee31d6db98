// Deterministic concurrency stress harness for the multi-submitter host
// path.
//
// run_stress() drives a freshly-built Testbed through seeded rounds of
// randomized submissions: N logical submitters issue mixed
// inline/PRP/SGL/BandSlim writes across M I/O queues, then reap. Each
// round is sized so every burst fits its rings without mid-burst fetching,
// which lets the harness walk the raw SQ memory afterwards and check the
// paper's structural guarantees as hard invariants:
//
//   1. Ring layout — every ByteExpress command is immediately followed by
//      exactly its payload chunks (byte-exact), and BandSlim fragments of
//      a stream appear in order with the right offsets (§3.3 / §3.2).
//   2. Doorbells — exactly one SQ doorbell per inline submission (one per
//      BandSlim command), counted at the BAR register.
//   3. Completions — exactly one CQE per submission: every wait() returns
//      success, the device's completions_posted matches the op count, and
//      no pending entries leak.
//   4. Traffic conservation — PCIe byte counters exactly account for the
//      round against the controller's TransferStatsLog: 64 B per fetched
//      slot, 16 B per CQE, 4 B per MSI-X and per doorbell, page-aligned
//      PRP data, exact SGL data.
//
// Scheduling modes:
//   * cooperative (default): one OS thread; a seeded scheduler picks which
//     logical submitter steps next. Fully deterministic — the same seed
//     reproduces the identical interleaving, byte-identical
//     TransferStatsLog included (timing field and all).
//   * OS threads (use_os_threads): one thread per submitter, for running
//     the same schedule shape under ThreadSanitizer. Counters and
//     invariants still hold; only the timing stats become
//     schedule-dependent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/testbed.h"
#include "driver/request.h"
#include "fault/fault.h"
#include "nvme/spec.h"
#include "obs/trace.h"

namespace bx::core {

struct StressOptions {
  std::uint64_t seed = 0x5eed;
  /// Logical submitters (cooperative tasks or OS threads).
  std::uint16_t submitters = 8;
  std::uint16_t io_queues = 4;
  std::uint32_t queue_depth = 128;
  std::uint32_t rounds = 6;
  /// Submissions attempted per round; trimmed so each queue's burst fits
  /// its ring (an op that would overflow its queue's budget is skipped).
  std::uint32_t ops_per_round = 24;
  std::uint32_t max_payload_bytes = 2048;
  /// false: seeded cooperative interleaving on one OS thread
  /// (deterministic); true: real threads (for TSan).
  bool use_os_threads = false;
  /// 1: each op submitted individually (one doorbell per command, the
  /// PR 1 path). > 1: each submitter groups runs of up to batch_depth
  /// consecutive same-queue ops and issues them via submit_batch(), so a
  /// run of coalescable commands shares ONE doorbell MWr. Invariant 2's
  /// expected doorbell counts switch to the coalesced accounting.
  std::uint32_t batch_depth = 1;
  /// Record the full event trace of the run and return it in
  /// StressResult::trace_events (for the trace-invariant tests).
  bool capture_trace = false;
  std::vector<driver::TransferMethod> methods = {
      driver::TransferMethod::kPrp,          driver::TransferMethod::kSgl,
      driver::TransferMethod::kByteExpress,  driver::TransferMethod::kBandSlim,
      driver::TransferMethod::kByteExpressOoo,
  };
};

struct StressResult {
  /// First invariant violation (internal error), or OK.
  Status status = Status::ok();
  /// Human-readable description of the violation, empty when ok().
  std::string failure;

  std::uint64_t ops_submitted = 0;
  std::uint64_t ops_completed = 0;
  /// BAR doorbell writes across all I/O queues during the run.
  std::uint64_t sq_doorbells = 0;
  std::uint64_t cq_doorbells = 0;
  /// Total PCIe wire bytes the run generated.
  std::uint64_t wire_bytes = 0;
  /// Device-side statistics delta over the run — byte-identical between
  /// two cooperative runs with the same options.
  nvme::TransferStatsLog stats_delta{};
  /// Full event trace (only when StressOptions::capture_trace is set).
  std::vector<obs::TraceEvent> trace_events;

  [[nodiscard]] bool ok() const noexcept { return status.is_ok(); }
};

/// Builds a testbed per `options` and runs the full schedule. Never
/// throws; invariant violations come back in the result.
StressResult run_stress(const StressOptions& options);

// --- Fault-sweep stress mode -------------------------------------------
//
// run_fault_sweep() drives seeded execute() calls through a testbed with a
// fault injector attached (see docs/FAULTS.md) and recovery timing tuned
// tight enough that every fault resolves within the run. Afterwards it
// checks the sweep's hard invariants:
//
//   1. Accounting — every injected fault is accounted for exactly once:
//      faults.injected == faults.recovered + faults.degraded +
//      faults.failed (read back from the metrics registry, the same
//      counters bxmon and the Prometheus exporter publish).
//   2. No hangs, no leaks — every execute() returns (timeouts are bounded
//      by the driver deadline) and no pending entries survive the sweep.
//   3. Structural traffic conservation — identities that hold even under
//      retries and drops because both sides are measured: 64 B on the wire
//      per fetched slot, 16 B per posted CQE, 4 B per doorbell write.

struct FaultSweepOptions {
  std::uint64_t seed = 0xfa017;
  driver::TransferMethod method = driver::TransferMethod::kByteExpress;
  std::uint32_t ops = 64;
  std::uint32_t max_payload_bytes = 1024;
  /// 1: ops go through execute() one at a time. > 1: ops are issued in
  /// groups of batch_depth via execute_batch(), exercising the batched
  /// retry tail — a fault on command k of a batch must resolve without
  /// poisoning the other commands, with accounting still exact.
  std::uint32_t batch_depth = 1;
  /// Injection policy; the sweep builds the testbed with this policy and
  /// its own (short) recovery clocks. Leave delay_ns at the default so
  /// delayed completions always out-wait the driver timeout.
  fault::FaultPolicy faults{};
};

struct FaultSweepResult {
  /// First invariant violation (internal error), or OK.
  Status status = Status::ok();
  std::string failure;

  std::uint64_t ops_attempted = 0;
  /// execute() resolved to device success (possibly after retries).
  std::uint64_t ops_ok = 0;
  /// execute() surfaced a final device error Status to the caller.
  std::uint64_t ops_error = 0;

  /// Fault accounting, read back from the metrics registry.
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t faults_degraded = 0;
  std::uint64_t faults_failed = 0;
  std::uint64_t tlp_replays = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t degradations = 0;

  [[nodiscard]] bool ok() const noexcept { return status.is_ok(); }
};

/// Builds a faulted testbed per `options` and runs the sweep. Never
/// throws; invariant violations come back in the result.
FaultSweepResult run_fault_sweep(const FaultSweepOptions& options);

/// The testbed base of the fault sweep and the tenant isolation harness:
/// run_stress's small geometry and NAND timing, recovery clocks tight
/// enough that every injected fault resolves within a run (device-side
/// TTLs expire well before the 2 ms driver deadline), and tracing off.
/// Callers set the queues and the fault policy.
TestbedConfig fault_recovery_config();

}  // namespace bx::core
