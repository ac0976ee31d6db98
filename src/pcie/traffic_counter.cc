#include "pcie/traffic_counter.h"

#include <cstdio>

#include "common/status.h"

namespace bx::pcie {

std::string_view traffic_class_name(TrafficClass cls) noexcept {
  switch (cls) {
    case TrafficClass::kCommandFetch: return "cmd_fetch";
    case TrafficClass::kDataPrp: return "data_prp";
    case TrafficClass::kDataSgl: return "data_sgl";
    case TrafficClass::kPrpList: return "prp_list";
    case TrafficClass::kCompletion: return "completion";
    case TrafficClass::kDoorbell: return "doorbell";
    case TrafficClass::kInterrupt: return "interrupt";
    case TrafficClass::kDataInlineRead: return "data_inl_rd";
    case TrafficClass::kOther: return "other";
    case TrafficClass::kCount_: break;
  }
  return "?";
}

void TrafficCounter::record(Direction dir, TrafficClass cls, TlpType type,
                            std::uint64_t tlps, std::uint64_t data_bytes,
                            std::uint64_t wire_bytes) noexcept {
  const auto d = static_cast<std::size_t>(dir);
  const auto c = static_cast<std::size_t>(cls);
  const auto t = static_cast<std::size_t>(type);
  BX_ASSERT(d < 2 && c < kClasses && t < kTlpTypes);
  Cell& cell = cells_[d][c][t];
  cell.tlps.add(tlps);
  cell.data_bytes.add(data_bytes);
  cell.wire_bytes.add(wire_bytes);
  totals_.tlps.add(tlps);
  totals_.data_bytes.add(data_bytes);
  totals_.wire_bytes.add(wire_bytes);
}

TrafficCell TrafficCounter::cell(Direction dir,
                                 TrafficClass cls) const noexcept {
  TrafficCell sum;
  for (const Cell& typed :
       cells_[static_cast<std::size_t>(dir)][static_cast<std::size_t>(cls)]) {
    sum.add(typed.tlps.value(), typed.data_bytes.value(),
            typed.wire_bytes.value());
  }
  return sum;
}

TrafficCell TrafficCounter::total(Direction dir) const noexcept {
  TrafficCell sum;
  for (std::size_t c = 0; c < kClasses; ++c) {
    sum += cell(dir, static_cast<TrafficClass>(c));
  }
  return sum;
}

TrafficCell TrafficCounter::total() const noexcept {
  return {totals_.tlps.value(), totals_.data_bytes.value(),
          totals_.wire_bytes.value()};
}

const TrafficCounter::Cell& TrafficCounter::counters(
    Direction dir, TrafficClass cls, TlpType type) const noexcept {
  return cells_[static_cast<std::size_t>(dir)][static_cast<std::size_t>(cls)]
               [static_cast<std::size_t>(type)];
}

void TrafficCounter::reset() noexcept {
  for (auto& dir : cells_) {
    for (auto& cls : dir) {
      for (Cell& cell : cls) {
        cell.tlps.reset();
        cell.data_bytes.reset();
        cell.wire_bytes.reset();
      }
    }
  }
  totals_.tlps.reset();
  totals_.data_bytes.reset();
  totals_.wire_bytes.reset();
}

std::string TrafficCounter::breakdown() const {
  std::string out =
      "class        direction   tlps         data_bytes     wire_bytes\n";
  char line[160];
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      const TrafficCell row =
          cell(static_cast<Direction>(d), static_cast<TrafficClass>(c));
      if (row.tlps == 0) continue;
      std::snprintf(
          line, sizeof(line), "%-12s %-11s %-12llu %-14llu %llu\n",
          std::string(traffic_class_name(static_cast<TrafficClass>(c)))
              .c_str(),
          d == 0 ? "host->dev" : "dev->host",
          static_cast<unsigned long long>(row.tlps),
          static_cast<unsigned long long>(row.data_bytes),
          static_cast<unsigned long long>(row.wire_bytes));
      out += line;
    }
  }
  const TrafficCell sum = total();
  std::snprintf(line, sizeof(line), "%-12s %-11s %-12llu %-14llu %llu\n",
                "TOTAL", "both", static_cast<unsigned long long>(sum.tlps),
                static_cast<unsigned long long>(sum.data_bytes),
                static_cast<unsigned long long>(sum.wire_bytes));
  out += line;
  return out;
}

}  // namespace bx::pcie
