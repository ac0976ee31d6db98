// Transaction-level PCIe link model.
//
// Every byte that crosses the simulated link goes through one of the
// primitives here: post_write, mmio_write32 (a 4-byte post_write), read,
// and read_n (`count` identical reads accounted in one step; read is
// read_n of one). Each primitive:
//   * segments the transfer into TLPs per MaxPayloadSize / MaxReadRequestSize,
//   * accounts wire bytes (incl. header/framing/DLLP share) in the
//     TrafficCounter,
//   * advances the clock by the modeled link time and rolls the telemetry
//     windows once, at the end.
//
// The link time of a transfer is propagation + serialization:
//   t = hops * prop_latency + wire_bytes / bytes_per_ns
// Reads pay the round trip (request out, completions back).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/sim_clock.h"
#include "common/status.h"
#include "obs/telemetry.h"
#include "fault/fault.h"
#include "pcie/tlp.h"
#include "pcie/traffic_counter.h"

namespace bx::pcie {

struct LinkConfig {
  int generation = 2;       // PCIe 1..5 (paper testbed: Gen2)
  int lanes = 8;            // x8 (paper testbed)
  std::uint32_t max_payload_size = 256;       // MPS, bytes
  std::uint32_t max_read_request_size = 512;  // MRRS, bytes
  Nanoseconds propagation_ns = 150;  // one-way TLP propagation latency
  TlpOverhead overhead;

  /// Effective data rate of the configured link in bytes per nanosecond,
  /// after encoding (8b/10b for Gen1/2, 128b/130b for Gen3+).
  [[nodiscard]] double bytes_per_ns() const noexcept;
};

/// The accounting of one memory read of a given size: its request (MRd)
/// and completion (CplD) TLPs with their wire bytes, and its round trip.
/// A chunk run repeats one cost, so it is computed once per run step.
struct ReadCost {
  std::uint64_t data_bytes = 0;
  std::uint64_t requests = 0;
  std::uint64_t request_wire = 0;
  std::uint64_t completions = 0;
  std::uint64_t completion_wire = 0;
  Nanoseconds ns = 0;
};

class PcieLink {
 public:
  PcieLink(const LinkConfig& config, SimClock& clock,
           TrafficCounter& counter) noexcept;

  /// Posted memory write of `data_bytes` (e.g. CQE write-back, MSI-X,
  /// MMIO-based byte interface). Advances the clock; returns elapsed time.
  Nanoseconds post_write(Direction dir, TrafficClass cls,
                         std::uint64_t data_bytes) noexcept;

  /// Memory read of `data_bytes`. `data_dir` is the direction the DATA
  /// (completions) travels — matching how PCM attributes read bandwidth —
  /// so a device DMA fetch of host memory uses kDownstream data with the
  /// MRd request accounted on the opposite direction. Advances the clock;
  /// returns the elapsed round-trip time.
  Nanoseconds read(Direction data_dir, TrafficClass cls,
                   std::uint64_t data_bytes) noexcept {
    return read_n(data_dir, cls, read_cost(data_bytes), 1);
  }

  /// The TLPs, wire bytes and round trip of one read of `data_bytes`.
  [[nodiscard]] ReadCost read_cost(std::uint64_t data_bytes) const noexcept;

  /// `count` reads of `cost` in one step: one TrafficCounter record of
  /// their MRd and CplD TLPs, one clock advance of `count` round trips (plus any
  /// replays, still drawn once per read), then one telemetry roll.
  /// Returns the elapsed link time. Windows close only at that roll, so
  /// the caller keeps every read but the last short of the next close
  /// (reads_until_sample) and advances the clock by the time between the
  /// reads itself, before the call.
  Nanoseconds read_n(Direction data_dir, TrafficClass cls,
                     const ReadCost& cost, std::uint64_t count) noexcept;

  /// How many reads of `cost`, each followed by `gap_ns` of other clock
  /// time, read_n() may account in one step from now, at most `max`: read
  /// j completes at now + j * (cost.ns + gap_ns) + cost.ns, and the step
  /// ends at the first read that reaches the next telemetry window close.
  /// `max` when telemetry is off; 1 with a fault injector attached, since
  /// a replay changes its read's time.
  [[nodiscard]] std::uint64_t reads_until_sample(const ReadCost& cost,
                                                 Nanoseconds gap_ns,
                                                 std::uint64_t max)
      const noexcept;

  /// 4-byte MMIO register write host->device (doorbells).
  Nanoseconds mmio_write32(TrafficClass cls) noexcept;

  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }
  [[nodiscard]] TrafficCounter& counter() noexcept { return counter_; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }

  /// Wire time for `wire_bytes` at this link's rate, without side effects.
  [[nodiscard]] Nanoseconds serialize_time(std::uint64_t wire_bytes)
      const noexcept {
    return static_cast<Nanoseconds>(
        std::llround(double(wire_bytes) / bytes_per_ns_));
  }

  /// Registers the TrafficCounter's six (direction, TLP type) cells with
  /// `telemetry` as the flows of their direction and TLP kind
  /// (MWr/MRd/Cpl), and rolls its sampling window forward after each
  /// primitive advances the clock. Call once, at assembly (nullptr leaves
  /// the link unsampled — the cost is one pointer check per primitive).
  void set_telemetry(obs::Telemetry* telemetry);

  /// Draws one data-link TLP replay per primitive, and per read within a
  /// read_n(), from `injector` (pass nullptr to detach). A replay
  /// retransmits one TLP after an LCRC/sequence error: extra wire bytes
  /// and time, zero data bytes and zero logical TLPs, invisible to host
  /// and device logic — so the data-byte conservation invariants hold
  /// unchanged under replays.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  /// Accounts one replayed TLP of `wire_bytes` when the injector fires;
  /// returns the extra link time (0 when it does not).
  Nanoseconds maybe_replay(Direction dir, TrafficClass cls, TlpType type,
                           std::uint64_t wire_bytes) noexcept;

  LinkConfig config_;
  /// config_.bytes_per_ns(), computed once: the config never changes.
  double bytes_per_ns_;
  SimClock& clock_;
  TrafficCounter& counter_;
  obs::Telemetry* telemetry_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
};

}  // namespace bx::pcie
