#include "pcie/link.h"

#include <cmath>

#include "common/bytes.h"

namespace bx::pcie {

double LinkConfig::bytes_per_ns() const noexcept {
  // Per-lane raw rates in GT/s and encoding efficiency.
  double gts = 0;
  double efficiency = 0;
  switch (generation) {
    case 1: gts = 2.5; efficiency = 0.8; break;   // 8b/10b
    case 2: gts = 5.0; efficiency = 0.8; break;   // 8b/10b
    case 3: gts = 8.0; efficiency = 128.0 / 130.0; break;
    case 4: gts = 16.0; efficiency = 128.0 / 130.0; break;
    case 5: gts = 32.0; efficiency = 128.0 / 130.0; break;
    default: gts = 5.0; efficiency = 0.8; break;
  }
  // GT/s * efficiency = Gbit/s per lane; /8 = GB/s = bytes per ns.
  return gts * efficiency / 8.0 * lanes;
}

PcieLink::PcieLink(const LinkConfig& config, SimClock& clock,
                   TrafficCounter& counter) noexcept
    : config_(config), clock_(clock), counter_(counter) {
  BX_ASSERT(config.generation >= 1 && config.generation <= 5);
  BX_ASSERT(config.lanes > 0);
  BX_ASSERT(config.max_payload_size >= 64);
}

Nanoseconds PcieLink::serialize_time(std::uint64_t wire_bytes) const noexcept {
  return static_cast<Nanoseconds>(
      std::llround(double(wire_bytes) / config_.bytes_per_ns()));
}

// pcie::Direction / TlpType share numeric values with obs::LinkDir /
// TlpKind (bx_obs sits below bx_pcie and cannot include these headers).
static_assert(int(Direction::kUpstream) == int(obs::LinkDir::kUpstream) &&
              int(TlpType::kMemoryWrite) == int(obs::TlpKind::kMWr) &&
              int(TlpType::kMemoryRead) == int(obs::TlpKind::kMRd) &&
              int(TlpType::kCompletion) == int(obs::TlpKind::kCpl));

void PcieLink::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) return;
  for (std::size_t d = 0; d < obs::kLinkDirs; ++d) {
    for (std::size_t t = 0; t < kTlpTypes; ++t) {
      const TrafficCounter::Cell& cell =
          counter_.counters(Direction(d), TlpType(t));
      telemetry->register_flow(obs::LinkDir(d), obs::TlpKind(t), &cell.tlps,
                               &cell.data_bytes, &cell.wire_bytes);
    }
  }
}

Nanoseconds PcieLink::maybe_replay(Direction dir, TrafficClass cls,
                                   TlpType type,
                                   std::uint64_t wire_bytes) noexcept {
  if (injector_ == nullptr || !injector_->next_tlp_replay()) {
    return 0;
  }
  // The retransmitted TLP costs wire bytes and time only: no data bytes
  // and no logical TLP, so per-TLP/data-byte conservation checks see the
  // same logical traffic with or without replays.
  counter_.record(dir, cls, type, 0, 0, wire_bytes);
  return config_.propagation_ns + serialize_time(wire_bytes);
}

Nanoseconds PcieLink::post_write(Direction dir, TrafficClass cls,
                                 std::uint64_t data_bytes) noexcept {
  const std::uint32_t mps = config_.max_payload_size;
  const std::uint64_t tlps = data_bytes == 0 ? 1 : div_ceil(data_bytes, mps);
  std::uint64_t wire = 0;
  std::uint64_t remaining = data_bytes;
  for (std::uint64_t i = 0; i < tlps; ++i) {
    const auto chunk =
        static_cast<std::uint32_t>(remaining < mps ? remaining : mps);
    wire += tlp_wire_bytes(TlpType::kMemoryWrite, chunk, config_.overhead);
    remaining -= chunk;
  }
  counter_.record(dir, cls, TlpType::kMemoryWrite, tlps, data_bytes, wire);
  Nanoseconds t = config_.propagation_ns + serialize_time(wire);
  t += maybe_replay(
      dir, cls, TlpType::kMemoryWrite,
      tlp_wire_bytes(TlpType::kMemoryWrite,
                     static_cast<std::uint32_t>(
                         data_bytes < mps ? data_bytes : mps),
                     config_.overhead));
  clock_.advance(t);
  if (telemetry_ != nullptr) telemetry_->advance_to(clock_.now());
  return t;
}

ReadCost PcieLink::read_cost(std::uint64_t data_bytes) const noexcept {
  BX_ASSERT(data_bytes > 0);
  const std::uint32_t mps = config_.max_payload_size;
  ReadCost cost;
  cost.data_bytes = data_bytes;
  // Read requests, split at MaxReadRequestSize.
  cost.requests = div_ceil(data_bytes, config_.max_read_request_size);
  cost.request_wire =
      cost.requests *
      tlp_wire_bytes(TlpType::kMemoryRead, 0, config_.overhead);
  // Completions with data, split at MaxPayloadSize.
  cost.completions = div_ceil(data_bytes, mps);
  std::uint64_t remaining = data_bytes;
  for (std::uint64_t i = 0; i < cost.completions; ++i) {
    const auto chunk =
        static_cast<std::uint32_t>(remaining < mps ? remaining : mps);
    cost.completion_wire +=
        tlp_wire_bytes(TlpType::kCompletion, chunk, config_.overhead);
    remaining -= chunk;
  }
  // Round trip: request propagation + its serialization, then completion
  // propagation + serialization of the data stream.
  cost.ns = 2 * config_.propagation_ns + serialize_time(cost.request_wire) +
            serialize_time(cost.completion_wire);
  return cost;
}

Nanoseconds PcieLink::read_n(Direction data_dir, TrafficClass cls,
                             const ReadCost& cost,
                             std::uint64_t count) noexcept {
  BX_ASSERT(count > 0);
  const Direction req_dir = data_dir == Direction::kUpstream
                                ? Direction::kDownstream
                                : Direction::kUpstream;
  counter_.record(req_dir, cls, TlpType::kMemoryRead, count * cost.requests,
                  0, count * cost.request_wire);
  counter_.record(data_dir, cls, TlpType::kCompletion,
                  count * cost.completions, count * cost.data_bytes,
                  count * cost.completion_wire);
  Nanoseconds t = count * cost.ns;
  if (injector_ != nullptr) {
    // A replay resends the first completion TLP.
    const std::uint32_t mps = config_.max_payload_size;
    const std::uint64_t replay_wire = tlp_wire_bytes(
        TlpType::kCompletion,
        static_cast<std::uint32_t>(cost.data_bytes < mps ? cost.data_bytes
                                                         : mps),
        config_.overhead);
    for (std::uint64_t i = 0; i < count; ++i) {
      t += maybe_replay(data_dir, cls, TlpType::kCompletion, replay_wire);
    }
  }
  clock_.advance(t);
  if (telemetry_ != nullptr) telemetry_->advance_to(clock_.now());
  return t;
}

std::uint64_t PcieLink::reads_until_sample(const ReadCost& cost,
                                           Nanoseconds gap_ns,
                                           std::uint64_t max) const noexcept {
  if (injector_ != nullptr) return 1;
  if (telemetry_ == nullptr) return max;
  const Nanoseconds close = telemetry_->next_close_ns();
  const Nanoseconds first = clock_.now() + cost.ns;  // read 0 completes
  if (first >= close) return 1;
  const Nanoseconds period = cost.ns + gap_ns;
  if (period == 0) return max;
  // The first read j with first + j * period >= close ends the step.
  const std::uint64_t j = (close - first - 1) / period + 1;
  return j >= max ? max : j + 1;
}

Nanoseconds PcieLink::mmio_write32(TrafficClass cls) noexcept {
  return post_write(Direction::kDownstream, cls, 4);
}

}  // namespace bx::pcie
