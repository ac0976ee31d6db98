// Transaction-level PCIe link model.
//
// Every byte that crosses the simulated link goes through one of the three
// primitives here (post_write / read / mmio_write32). Each primitive:
//   * segments the transfer into TLPs per MaxPayloadSize / MaxReadRequestSize,
//   * accounts wire bytes (incl. header/framing/DLLP share) in the
//     TrafficCounter,
//   * returns the modeled link time, which the caller adds to its timeline.
//
// The link time of a transfer is propagation + serialization:
//   t = hops * prop_latency + wire_bytes / bytes_per_ns
// Reads pay the round trip (request out, completions back).
#pragma once

#include <cstdint>

#include "common/sim_clock.h"
#include "common/status.h"
#include "obs/metrics.h"
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
                   std::uint64_t data_bytes) noexcept;

  /// 4-byte MMIO register write host->device (doorbells).
  Nanoseconds mmio_write32(TrafficClass cls) noexcept;

  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }
  [[nodiscard]] TrafficCounter& counter() noexcept { return counter_; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }

  /// Wire time for `wire_bytes` at this link's rate, without side effects.
  [[nodiscard]] Nanoseconds serialize_time(std::uint64_t wire_bytes)
      const noexcept;

  /// Mirrors every record into `pcie.tlps` / `pcie.wire_bytes` /
  /// `pcie.data_bytes` counters of `metrics` (pass nullptr to detach).
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Registers every TrafficCounter cell with `telemetry` as a flow of
  /// its direction and TLP kind (MWr/MRd/Cpl), and rolls its sampling
  /// window forward after each primitive advances the clock. Call once,
  /// at assembly (nullptr leaves the link unsampled — the cost is one
  /// pointer check per primitive).
  void set_telemetry(obs::Telemetry* telemetry);

  /// Draws one data-link TLP replay per primitive from `injector` (pass
  /// nullptr to detach). A replay retransmits one TLP after an
  /// LCRC/sequence error: extra wire bytes and time, zero data bytes and
  /// zero logical TLPs, invisible to host and device logic — so the
  /// data-byte conservation invariants hold unchanged under replays.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  /// Accounts one replayed TLP of `wire_bytes` when the injector fires;
  /// returns the extra link time (0 when it does not).
  Nanoseconds maybe_replay(Direction dir, TrafficClass cls, TlpType type,
                           std::uint64_t wire_bytes) noexcept;
  void record(Direction dir, TrafficClass cls, TlpType type,
              std::uint64_t tlps, std::uint64_t data_bytes,
              std::uint64_t wire_bytes) noexcept;

  LinkConfig config_;
  SimClock& clock_;
  TrafficCounter& counter_;
  obs::Counter* tlps_metric_ = nullptr;
  obs::Counter* wire_bytes_metric_ = nullptr;
  obs::Counter* data_bytes_metric_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
};

}  // namespace bx::pcie
