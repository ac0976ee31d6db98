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

namespace {

void add(TrafficCounter::Cell& cell, std::uint64_t tlps,
         std::uint64_t data_bytes, std::uint64_t wire_bytes) noexcept {
  cell.tlps.add_locked(tlps);
  cell.data_bytes.add_locked(data_bytes);
  cell.wire_bytes.add_locked(wire_bytes);
}

TrafficCell read(const TrafficCounter::Cell& cell) noexcept {
  return {cell.tlps.value(), cell.data_bytes.value(),
          cell.wire_bytes.value()};
}

void clear(TrafficCounter::Cell& cell) noexcept {
  cell.tlps.reset();
  cell.data_bytes.reset();
  cell.wire_bytes.reset();
}

}  // namespace

void TrafficCounter::record(Direction dir, TrafficClass cls, TlpType type,
                            std::uint64_t tlps, std::uint64_t data_bytes,
                            std::uint64_t wire_bytes) noexcept {
  const auto d = static_cast<std::size_t>(dir);
  const auto c = static_cast<std::size_t>(cls);
  const auto t = static_cast<std::size_t>(type);
  BX_ASSERT(d < 2 && c < kClasses && t < kTlpTypes);
  std::lock_guard<std::mutex> lock(writer_);
  add(by_class_[d][c], tlps, data_bytes, wire_bytes);
  add(by_type_[d][t], tlps, data_bytes, wire_bytes);
  add(totals_, tlps, data_bytes, wire_bytes);
}

void TrafficCounter::record_read(Direction data_dir, TrafficClass cls,
                                 std::uint64_t requests,
                                 std::uint64_t request_wire,
                                 std::uint64_t completions,
                                 std::uint64_t data_bytes,
                                 std::uint64_t completion_wire) noexcept {
  const auto data = static_cast<std::size_t>(data_dir);
  const std::size_t request = 1 - data;
  const auto c = static_cast<std::size_t>(cls);
  BX_ASSERT(data < 2 && c < kClasses);
  constexpr auto kMRd = static_cast<std::size_t>(TlpType::kMemoryRead);
  constexpr auto kCpl = static_cast<std::size_t>(TlpType::kCompletion);
  std::lock_guard<std::mutex> lock(writer_);
  add(by_class_[request][c], requests, 0, request_wire);
  add(by_type_[request][kMRd], requests, 0, request_wire);
  add(by_class_[data][c], completions, data_bytes, completion_wire);
  add(by_type_[data][kCpl], completions, data_bytes, completion_wire);
  add(totals_, requests + completions, data_bytes,
      request_wire + completion_wire);
}

TrafficCell TrafficCounter::cell(Direction dir,
                                 TrafficClass cls) const noexcept {
  return read(
      by_class_[static_cast<std::size_t>(dir)][static_cast<std::size_t>(cls)]);
}

TrafficCell TrafficCounter::total(Direction dir) const noexcept {
  TrafficCell sum;
  for (const Cell& typed : by_type_[static_cast<std::size_t>(dir)]) {
    sum += read(typed);
  }
  return sum;
}

TrafficCell TrafficCounter::total() const noexcept { return read(totals_); }

const TrafficCounter::Cell& TrafficCounter::counters(
    Direction dir, TlpType type) const noexcept {
  return by_type_[static_cast<std::size_t>(dir)]
                 [static_cast<std::size_t>(type)];
}

void TrafficCounter::reset() noexcept {
  std::lock_guard<std::mutex> lock(writer_);
  for (auto& dir : by_class_) {
    for (Cell& cell : dir) clear(cell);
  }
  for (auto& dir : by_type_) {
    for (Cell& cell : dir) clear(cell);
  }
  clear(totals_);
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
