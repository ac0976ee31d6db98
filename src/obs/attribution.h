// Queue-depth-aware wait/service decomposition of a command's latency.
//
// At QD1 the primary trace stages tile a command's latency window, so the
// stage durations ARE the attribution (trace_latency_accounting_test). At
// depth they are not: most of a deep-queue command's life is spent waiting
// — for admission, in an arrival backlog ahead of the driver, for SQ slots,
// under a coalesced doorbell, in controller arbitration, in OOO reassembly — and
// none of those waits is a stage interval. LatencyBreakdown decomposes
// `Completion::latency_ns` into eight wait/service segments that sum
// EXACTLY to the measured latency for every command at any depth
// (obs::check_breakdown_additivity enforces the invariant;
// tests/latency_attribution_test.cc asserts zero residual at QD 1/8/32).
//
// Segment semantics (host marks + the device report the controller files
// for every command it completes, obs::DeviceReport; telescoped by
// make_additive so the sum is exact by construction):
//
//   kGateWait    admission-gate decision (tenant token bucket / budgets)
//   kRingWait    arrival backlog: IoRequest::origin_ns -> driver entry
//   kSlotWait    SQ-slot backpressure: first publish attempt -> slots free
//   kBellHold    doorbell-coalescing hold: SQE pushed -> its bell rung
//   kArbWait     doorbell -> SQE fetch (SQ arbitration), plus the time an
//                injected completion delay held the CQE
//   kService     host SQE build/staging + device service: SQE fetch ->
//                CQE host-visible, less the reassembly wait and the hold
//   kReassembly  reassembly wait: a deferred OOO command waiting for its
//                chunks, or BandSlim fragment assembly (end of the
//                header's stream setup -> its last fragment)
//   kDelivery    CQE write -> host reap (CQ poll, doorbell, finish)
//
// The device report does not depend on tracing, so the breakdown is the
// same with the trace recorder off. Paths that end without a device
// report (timeout -> synthesized Abort Requested, dropped completions)
// book everything after the doorbell as kArbWait: the command
// demonstrably left the host and never came back.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace bx::obs {

enum class WaitSegment : std::uint8_t {
  kGateWait = 0,
  kRingWait,
  kSlotWait,
  kBellHold,
  kArbWait,
  kService,
  kReassembly,
  kDelivery,
  kCount_,
};

inline constexpr std::size_t kWaitSegmentCount =
    static_cast<std::size_t>(WaitSegment::kCount_);

/// Short stable label ("gate", "ring", ... "delivery") used for metric
/// names, telemetry rows, exporter tracks and bench report keys.
[[nodiscard]] std::string_view wait_segment_name(WaitSegment segment) noexcept;

struct LatencyBreakdown {
  std::array<std::uint64_t, kWaitSegmentCount> ns{};

  [[nodiscard]] std::uint64_t of(WaitSegment segment) const noexcept {
    return ns[static_cast<std::size_t>(segment)];
  }
  [[nodiscard]] std::uint64_t& of(WaitSegment segment) noexcept {
    return ns[static_cast<std::size_t>(segment)];
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t v : ns) total += v;
    return total;
  }
};

/// Builds a breakdown whose segments sum EXACTLY to `total_ns`. `want`
/// holds the independently measured segment durations (kArbWait is
/// ignored); each is granted from the remaining budget in a fixed order
/// (gate, ring, slot, bell, delivery, reassembly, service) and kArbWait
/// receives the exact remainder. On the healthy paths the marks telescope
/// and nothing is clamped; the budget walk only guards marks that overlap
/// (e.g. a BandSlim header the device fetched while another thread's pump
/// ran, before its host pushed the last fragment) so the additivity
/// invariant holds unconditionally.
[[nodiscard]] LatencyBreakdown make_additive(
    std::uint64_t total_ns,
    const std::array<std::uint64_t, kWaitSegmentCount>& want) noexcept;

/// Additivity invariant: every segment finite and the segment sum equal to
/// `latency_ns`, exactly. Returns an empty string when the invariant
/// holds, else a human-readable violation.
[[nodiscard]] std::string check_breakdown_additivity(
    const LatencyBreakdown& breakdown, std::uint64_t latency_ns);

/// JSON object keyed by segment name, e.g. {"gate": 0, ..., "delivery": 12}.
[[nodiscard]] std::string to_json(const LatencyBreakdown& breakdown);

}  // namespace bx::obs
