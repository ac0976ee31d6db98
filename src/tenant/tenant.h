// Multi-tenant queue virtualization: tenant identity, rate limiting and
// admission control (see docs/TENANCY.md).
//
// A tenant is a logical client of the testbed that owns a virtual SQ/CQ
// pair (tenant/vqueue.h) mapped onto one hardware queue, an arbitration
// class (weight + urgent flag, enforced by the controller's WRR poll
// loop), and an admission budget enforced host-side before any ring slot
// is claimed. AdmissionController is the production implementation of
// driver::SubmissionGate: one instance guards the whole driver and holds
// the per-tenant budgets —
//
//   * a token-bucket byte-rate limit refilled on SIMULATED time (so a
//     seeded run admits and rejects identically on every machine),
//   * an inline-chunk-slot budget: the number of 64-byte SQ slots a
//     tenant's in-flight ByteExpress/OOO payloads may occupy at once
//     (the resource the paper's inline transfer actually contends on),
//   * a per-command payload cap (the oversized-payload adversary is
//     rejected here, before it can monopolize ring space).
//
// Every admit()/release() outcome is counted in component-owned counters
// (admitted / rejected / payload_bytes / completions / inflight_slots)
// that the TenantScheduler registers with obs::Telemetry for per-window
// sampling and with the MetricsRegistry for bxmon and the exporters.
//
// Locking: the controller's mutex is the INNERMOST lock in the system
// (driver/submission_gate.h contract) — admit() and release() take it
// and call nothing outside this class.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "driver/submission_gate.h"
#include "obs/metrics.h"

namespace bx::tenant {

/// Static description of one tenant, fixed at scheduler assembly.
struct TenantConfig {
  /// Tenant identity carried in IoRequest::tenant. Must be non-zero
  /// (0 means untenanted and bypasses admission).
  std::uint16_t id = 1;
  /// Metric name fragment; defaults to "t<id>" when empty.
  std::string name;
  /// Hardware queue this tenant's virtual queue maps onto.
  std::uint16_t hw_qid = 1;
  /// Weight of the hardware queue in the controller's deficit round
  /// robin: up to this many consecutive grants per turn while backlogged
  /// (Controller::set_queue_arbitration). Must be >= 1.
  std::uint32_t weight = 1;
  /// Urgent arbitration class: preempts normal-class queues up to
  /// Controller::kUrgentBurstLimit grants in a row.
  bool urgent = false;
  /// Token-bucket byte rate in payload bytes per simulated second
  /// (0 = unlimited).
  std::uint64_t rate_bytes_per_sec = 0;
  /// Token-bucket burst capacity in bytes (the bucket starts full).
  std::uint64_t burst_bytes = 64 * 1024;
  /// Max inline-chunk SQ slots this tenant's in-flight commands may hold
  /// at once (0 = unlimited). PRP/SGL commands occupy zero such slots.
  std::uint32_t inline_slot_budget = 0;
  /// Per-command payload cap in bytes (0 = unlimited); larger requests
  /// are rejected at admission with kResourceExhausted.
  std::uint32_t max_payload_bytes = 0;

  [[nodiscard]] std::string metric_name() const {
    return name.empty() ? "t" + std::to_string(id) : name;
  }
};

/// Deterministic token bucket refilled on simulated time. Starts full.
/// Integer arithmetic throughout (tokens are kept scaled by 1e9 so one
/// byte-per-second refills exactly one scaled token per nanosecond) —
/// two runs with the same submission times make identical decisions.
class TokenBucket {
 public:
  /// rate 0 disables the limit: try_consume() always succeeds.
  TokenBucket(std::uint64_t rate_bytes_per_sec, std::uint64_t burst_bytes);

  /// Refills for the time since the last call, then atomically consumes
  /// `bytes` if available. `now` must be monotone across calls.
  [[nodiscard]] bool try_consume(std::uint64_t bytes, Nanoseconds now);

  /// Whole bytes available after refilling to `now` (consumes nothing).
  [[nodiscard]] std::uint64_t available(Nanoseconds now);

  [[nodiscard]] std::uint64_t rate() const noexcept { return rate_; }
  [[nodiscard]] std::uint64_t burst() const noexcept { return burst_; }

 private:
  void refill(Nanoseconds now);

  std::uint64_t rate_ = 0;   // bytes per simulated second
  std::uint64_t burst_ = 0;  // bytes
  /// Current tokens, scaled by kScale (bytes * 1e9).
  unsigned __int128 tokens_scaled_ = 0;
  Nanoseconds last_ns_ = 0;
};

/// The production driver::SubmissionGate: per-tenant token-bucket rate
/// limiting plus the inline-chunk-slot budget. Thread-safe; see header
/// comment for the locking contract.
class AdmissionController final : public driver::SubmissionGate {
 public:
  /// Component-owned service counters, one set per tenant. Address-stable
  /// for the controller's lifetime: Telemetry and the MetricsRegistry
  /// hold pointers into this struct.
  struct TenantCounters {
    obs::Counter admitted;
    obs::Counter rejected;
    obs::Counter payload_bytes;
    obs::Counter completions;
    /// In-flight inline SQ slots currently charged against the budget.
    obs::Gauge inflight_slots;
  };

  explicit AdmissionController(const std::vector<TenantConfig>& tenants);

  // driver::SubmissionGate -------------------------------------------------

  /// Untenanted requests (tenant 0) are admitted without accounting;
  /// unknown tenant ids are rejected with kFailedPrecondition (a wiring
  /// bug, not backpressure). Checks, in order: payload cap, inline-slot
  /// budget, byte rate — so an oversized or over-budget command never
  /// consumes rate tokens. Rejections are kResourceExhausted and count
  /// in `rejected`; admissions charge every budget atomically.
  [[nodiscard]] Status admit(const driver::IoRequest& request,
                             std::uint16_t qid, std::uint32_t inline_slots,
                             Nanoseconds now) override;

  void release(std::uint16_t tenant, std::uint32_t inline_slots,
               bool completed) noexcept override;

  // Introspection ----------------------------------------------------------

  /// Non-consuming preview of admit() for schedulers that want to back
  /// off instead of burning a rejection (refills the bucket but takes
  /// no tokens).
  [[nodiscard]] bool would_admit(std::uint16_t tenant,
                                 std::uint64_t payload_bytes,
                                 std::uint32_t inline_slots, Nanoseconds now);

  /// The tenant's counters, or nullptr for an unknown id. The pointer is
  /// stable for the controller's lifetime.
  [[nodiscard]] const TenantCounters* counters(std::uint16_t tenant) const;

  /// The tenant's static config, or nullptr for an unknown id.
  [[nodiscard]] const TenantConfig* config(std::uint16_t tenant) const;

  /// Tenant ids in registration order (deterministic iteration for
  /// reports and metric registration).
  [[nodiscard]] const std::vector<std::uint16_t>& tenant_ids() const noexcept {
    return ids_;
  }

  /// In-flight inline slots currently charged to `tenant` (0 if unknown).
  [[nodiscard]] std::uint32_t inflight_slots(std::uint16_t tenant) const;

 private:
  struct State {
    TenantConfig config;
    TokenBucket bucket;
    std::uint32_t inflight_slots = 0;
    /// unique_ptr so counter addresses survive map rehashes.
    std::unique_ptr<TenantCounters> counters;
  };

  /// Innermost lock (see driver/submission_gate.h).
  mutable std::mutex mutex_;
  std::unordered_map<std::uint16_t, State> states_;
  std::vector<std::uint16_t> ids_;
};

}  // namespace bx::tenant
