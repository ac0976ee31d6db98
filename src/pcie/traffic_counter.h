// PCM-style traffic counters: wire bytes and data bytes per direction, with
// a per-class breakdown so benchmarks can attribute traffic to command
// fetches, PRP data, inline chunks, completions, doorbells and interrupts.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "pcie/tlp.h"

namespace bx::pcie {

enum class Direction : std::uint8_t {
  kDownstream = 0,  // host -> device (root complex transmit)
  kUpstream = 1,    // device -> host
};

/// What a transfer is for — the attribution axis of the traffic breakdown.
enum class TrafficClass : std::uint8_t {
  kCommandFetch = 0,  // 64 B SQE fetch (and ByteExpress chunk fetch)
  kDataPrp,           // page-granular PRP data DMA
  kDataSgl,           // SGL fine-grained data DMA
  kPrpList,           // PRP list page fetches (> 2 pages)
  kCompletion,        // 16 B CQE write-back
  kDoorbell,          // host MMIO doorbell write
  kInterrupt,         // MSI-X posted write
  kDataInlineRead,    // ByteExpress-R inline read chunk (dev -> host MWr)
  kOther,
  kCount_,
};

std::string_view traffic_class_name(TrafficClass cls) noexcept;

/// A read-side snapshot of one (direction, class) counter cell.
struct TrafficCell {
  std::uint64_t tlps = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t wire_bytes = 0;

  void add(std::uint64_t tlp_count, std::uint64_t data,
           std::uint64_t wire) noexcept {
    tlps += tlp_count;
    data_bytes += data;
    wire_bytes += wire;
  }
  TrafficCell& operator+=(const TrafficCell& other) noexcept {
    add(other.tlps, other.data_bytes, other.wire_bytes);
    return *this;
  }
};

/// Thread-safe: record() sits on the hot path of every TLP, and under
/// multi-submitter load it is called from every host thread plus whichever
/// thread is pumping the device. A record adds to nine counters under one
/// leaf writer lock (held for those adds only, never while another lock is
/// taken), so each add is a plain relaxed load and store rather than a
/// locked read-modify-write. Readers take no lock: they load the relaxed
/// atomic obs::Counters cell by cell, so totals read while traffic is in
/// flight are monotone lower bounds, and exact once the system quiesces
/// (which is when tests and benchmarks read them).
///
/// One record() feeds the three views the readers use:
///   * per (direction, class) cells: the traffic breakdown;
///   * per (direction, TLP type) cells: what the telemetry windows sample
///     as PCM's MWr/MRd/Cpl flows;
///   * the totals behind the `pcie.*` metrics.
class TrafficCounter {
 public:
  /// The live counters of one cell.
  struct Cell {
    obs::Counter tlps;
    obs::Counter data_bytes;
    obs::Counter wire_bytes;
  };

  void record(Direction dir, TrafficClass cls, TlpType type,
              std::uint64_t tlps, std::uint64_t data_bytes,
              std::uint64_t wire_bytes) noexcept;

  /// One (direction, class) cell, over every TLP type.
  [[nodiscard]] TrafficCell cell(Direction dir,
                                 TrafficClass cls) const noexcept;
  [[nodiscard]] TrafficCell total(Direction dir) const noexcept;
  /// Both directions, every class: the running totals record() keeps.
  [[nodiscard]] TrafficCell total() const noexcept;
  /// The live counters behind total(), which reset() clears with the
  /// cells (the Testbed exposes them as the `pcie.*` metrics).
  [[nodiscard]] const Cell& totals() const noexcept { return totals_; }
  /// The counters of one (direction, TLP type) cell, over every class,
  /// for samplers that read them live (PcieLink registers them with
  /// obs::Telemetry).
  [[nodiscard]] const Cell& counters(Direction dir,
                                     TlpType type) const noexcept;

  /// Wire bytes across both directions — the headline "PCIe traffic" the
  /// paper's figures report.
  [[nodiscard]] std::uint64_t total_wire_bytes() const noexcept {
    return total().wire_bytes;
  }
  [[nodiscard]] std::uint64_t total_data_bytes() const noexcept {
    return total().data_bytes;
  }

  void reset() noexcept;

  /// Multi-line per-class breakdown table.
  [[nodiscard]] std::string breakdown() const;

 private:
  static constexpr std::size_t kClasses =
      static_cast<std::size_t>(TrafficClass::kCount_);

  std::mutex writer_;  // serializes record() and reset()
  std::array<std::array<Cell, kClasses>, 2> by_class_{};
  std::array<std::array<Cell, kTlpTypes>, 2> by_type_{};
  Cell totals_;
};

}  // namespace bx::pcie
