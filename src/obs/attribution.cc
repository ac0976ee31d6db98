#include "obs/attribution.h"

#include <cstdio>

namespace bx::obs {

std::string_view wait_segment_name(WaitSegment segment) noexcept {
  switch (segment) {
    case WaitSegment::kGateWait: return "gate";
    case WaitSegment::kRingWait: return "ring";
    case WaitSegment::kSlotWait: return "slot";
    case WaitSegment::kBellHold: return "bell";
    case WaitSegment::kArbWait: return "arb";
    case WaitSegment::kService: return "service";
    case WaitSegment::kReassembly: return "reassembly";
    case WaitSegment::kDelivery: return "delivery";
    case WaitSegment::kCount_: break;
  }
  return "?";
}

LatencyBreakdown make_additive(
    std::uint64_t total_ns,
    const std::array<std::uint64_t, kWaitSegmentCount>& want) noexcept {
  LatencyBreakdown breakdown;
  std::uint64_t remaining = total_ns;
  const auto grant = [&remaining](std::uint64_t wanted) noexcept {
    const std::uint64_t granted = wanted < remaining ? wanted : remaining;
    remaining -= granted;
    return granted;
  };
  // Waits first (they are measured directly and cannot legitimately
  // overshoot), then delivery and reassembly, then service — the segment
  // whose host and device parts can overlap.
  for (const WaitSegment segment :
       {WaitSegment::kGateWait, WaitSegment::kRingWait, WaitSegment::kSlotWait,
        WaitSegment::kBellHold, WaitSegment::kDelivery,
        WaitSegment::kReassembly, WaitSegment::kService}) {
    breakdown.of(segment) = grant(want[static_cast<std::size_t>(segment)]);
  }
  breakdown.of(WaitSegment::kArbWait) = remaining;
  return breakdown;
}

std::string check_breakdown_additivity(const LatencyBreakdown& breakdown,
                                       std::uint64_t latency_ns) {
  const std::uint64_t total = breakdown.total_ns();
  if (total == latency_ns) return {};
  char message[160];
  std::snprintf(message, sizeof(message),
                "breakdown residual: segments sum to %llu ns but latency_ns "
                "is %llu (residual %lld)",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(latency_ns),
                static_cast<long long>(latency_ns) -
                    static_cast<long long>(total));
  return message;
}

std::string to_json(const LatencyBreakdown& breakdown) {
  std::string out = "{";
  for (std::size_t i = 0; i < kWaitSegmentCount; ++i) {
    char entry[64];
    std::snprintf(
        entry, sizeof(entry), "%s\"%s\": %llu", i == 0 ? "" : ", ",
        std::string(wait_segment_name(static_cast<WaitSegment>(i))).c_str(),
        static_cast<unsigned long long>(breakdown.ns[i]));
    out += entry;
  }
  out += "}";
  return out;
}

}  // namespace bx::obs
