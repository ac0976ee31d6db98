#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace bx::obs {

std::string_view stage_name(TraceStage stage) noexcept {
  switch (stage) {
    case TraceStage::kSubmit: return "submit";
    case TraceStage::kDoorbell: return "doorbell";
    case TraceStage::kSqeFetch: return "sqe_fetch";
    case TraceStage::kChunkFetch: return "chunk_fetch";
    case TraceStage::kPrpDma: return "prp_dma";
    case TraceStage::kSglDma: return "sgl_dma";
    case TraceStage::kNandIo: return "nand_io";
    case TraceStage::kExec: return "exec";
    case TraceStage::kReadChunkWrite: return "read_chunk";
    case TraceStage::kCompletion: return "completion";
    case TraceStage::kCqDoorbell: return "cq_doorbell";
    case TraceStage::kCount_: break;
  }
  return "?";
}

void TraceRecorder::append_locked(std::span<TraceEvent> events) {
  std::uint64_t seq = next_seq_.load(std::memory_order_relaxed);
  next_seq_.store(seq + events.size(), std::memory_order_relaxed);
  for (TraceEvent& event : events) event.seq = seq++;
  const std::size_t kept =
      std::min<std::size_t>(events.size(), kCapacity - events_.size());
  events_.insert(events_.end(), events.begin(), events.begin() + kept);
  if (kept < events.size()) {
    dropped_.store(dropped_.load(std::memory_order_relaxed) +
                       (events.size() - kept),
                   std::memory_order_relaxed);
  }
}

void TraceRecorder::record_run(std::span<TraceEvent> events) {
  if (!enabled() || events.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(events);
}

void TraceRecorder::record_staged() {
  if (staged_.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(staged_);
  staged_.clear();
}

void TraceRecorder::report_command(std::uint16_t qid, std::uint16_t cid,
                                   const DeviceReport& report) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!staged_.empty()) {
    append_locked(staged_);
    staged_.clear();
  }
  reports_.insert_or_assign(command_key(qid, cid), report);
}

DeviceReport TraceRecorder::take_report_locked(std::uint32_t key) {
  const auto it = reports_.find(key);
  if (it == reports_.end()) return {};
  const DeviceReport report = it->second;
  reports_.erase(it);
  return report;
}

void TraceRecorder::finish_commands(std::span<TraceEvent> events,
                                    std::span<DeviceReport> reports) {
  BX_ASSERT(reports.size() == events.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < events.size(); ++i) {
    reports[i] = take_report_locked(command_key(events[i].qid, events[i].cid));
  }
  if (enabled()) append_locked(events);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

StageBreakdown TraceRecorder::stage_breakdown() const {
  StageBreakdown breakdown;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TraceEvent& e : events_) {
    const auto index = static_cast<std::size_t>(e.stage);
    if (index >= kStageCount) continue;
    StageBreakdown::StageStats& stats = breakdown.stages[index];
    const std::uint64_t duration =
        e.end >= e.start ? static_cast<std::uint64_t>(e.end - e.start) : 0;
    ++stats.count;
    stats.total_ns += duration;
    stats.durations.record(duration);
  }
  return breakdown;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceRecorder::dump(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  char line[192];
  for (const TraceEvent& e : events) {
    std::snprintf(
        line, sizeof(line),
        "%8llu [%12lld %12lld] %-11s q%-3u cid%-5u ten%-3u slot=%-5u "
        "flags=%u aux=%llu bytes=%llu\n",
        static_cast<unsigned long long>(e.seq),
        static_cast<long long>(e.start), static_cast<long long>(e.end),
        std::string(stage_name(e.stage)).c_str(), e.qid, e.cid, e.tenant,
        e.slot, e.flags, static_cast<unsigned long long>(e.aux),
        static_cast<unsigned long long>(e.bytes));
    out += line;
  }
  return out;
}

std::string to_json(const StageBreakdown& breakdown) {
  std::string out = "{";
  bool first = true;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const StageBreakdown::StageStats& stats = breakdown.stages[i];
    if (stats.count == 0) continue;
    char entry[256];
    std::snprintf(
        entry, sizeof(entry),
        "%s\"%s\": {\"count\": %llu, \"total_ns\": %llu, \"p50_ns\": %llu, "
        "\"p99_ns\": %llu}",
        first ? "" : ", ",
        std::string(stage_name(static_cast<TraceStage>(i))).c_str(),
        static_cast<unsigned long long>(stats.count),
        static_cast<unsigned long long>(stats.total_ns),
        static_cast<unsigned long long>(stats.durations.percentile(50)),
        static_cast<unsigned long long>(stats.durations.percentile(99)));
    out += entry;
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace bx::obs
