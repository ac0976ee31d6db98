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

namespace {

/// Device-side primary stages whose durations make up a command's device
/// service time. kNandIo nests inside kExec and kDoorbell/kSubmit/
/// kCqDoorbell are host-side.
bool is_device_service_stage(TraceStage stage) noexcept {
  switch (stage) {
    case TraceStage::kSqeFetch:
    case TraceStage::kChunkFetch:
    case TraceStage::kPrpDma:
    case TraceStage::kSglDma:
    case TraceStage::kExec:
    case TraceStage::kReadChunkWrite:
    case TraceStage::kCompletion:
      return true;
    default:
      return false;
  }
}

}  // namespace

void TraceRecorder::store_events(std::span<const TraceEvent> events) {
  const std::uint64_t n = events.size();
  const std::uint64_t before =
      stored_.fetch_add(n, std::memory_order_relaxed);
  const std::uint64_t kept =
      before >= kCapacity ? 0 : std::min(n, kCapacity - before);
  if (kept < n) {
    stored_.fetch_sub(n - kept, std::memory_order_relaxed);
    dropped_.fetch_add(n - kept, std::memory_order_relaxed);
  }
  if (kept == 0) return;
  Shard& shard = shards_[events.front().qid % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  for (const TraceEvent& event : events.first(kept)) {
    shard.events.push_back(event);
  }
}

void TraceRecorder::record_run(std::span<TraceEvent> events) {
  if (!enabled() || events.empty()) return;
  std::uint64_t seq =
      next_seq_.fetch_add(events.size(), std::memory_order_relaxed);
  for (TraceEvent& event : events) event.seq = seq++;
  const TraceEvent& first = events.front();
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    auto it = open_.find(command_key(first.qid, first.cid));
    if (it != open_.end()) {
      OpenCommand& open = it->second;
      for (const TraceEvent& event : events) {
        BX_ASSERT(event.qid == first.qid && event.cid == first.cid);
        if (!is_device_service_stage(event.stage)) continue;
        DeviceReport& report = open.report;
        report.valid = true;
        if (event.end >= event.start) {
          report.service_ns +=
              static_cast<std::uint64_t>(event.end - event.start);
        }
        if (event.stage == TraceStage::kCompletion) {
          report.cqe_end = event.end;
        }
      }
      if (open.buffering) {
        open.buffered.insert(open.buffered.end(), events.begin(),
                             events.end());
        return;
      }
    }
  }
  store_events(events);
}

void TraceRecorder::record_in_device_context(TraceEvent event) {
  if (!enabled()) return;
  if (device_context_valid_) {
    event.qid = device_qid_;
    event.cid = device_cid_;
  }
  record(event);
}

void TraceRecorder::begin_command(std::uint16_t qid, std::uint16_t cid,
                                  std::uint16_t tenant) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(table_mutex_);
  OpenCommand& open = open_[command_key(qid, cid)];
  open = OpenCommand{};
  open.tenant = tenant;
  open.buffering = sampling_.enabled;
}

void TraceRecorder::note_command_wait(std::uint16_t qid, std::uint16_t cid,
                                      std::uint64_t wait_ns) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(table_mutex_);
  auto it = open_.find(command_key(qid, cid));
  if (it != open_.end()) it->second.report.wait_ns += wait_ns;
}

DeviceReport TraceRecorder::finish_command(std::uint16_t qid,
                                           std::uint16_t cid, Nanoseconds now,
                                           Nanoseconds latency_ns) {
  DeviceReport report;
  commands_seen_.fetch_add(1, std::memory_order_relaxed);
  std::vector<TraceEvent> buffered;
  bool keep = true;
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    auto it = open_.find(command_key(qid, cid));
    if (it == open_.end()) {
      // Unknown (recorder cleared mid-flight, or bracketing disabled):
      // nothing was buffered, so nothing can be sampled out.
      commands_kept_.fetch_add(1, std::memory_order_relaxed);
      return report;
    }
    report = it->second.report;
    buffered = std::move(it->second.buffered);
    const bool buffering = it->second.buffering;
    open_.erase(it);
    if (buffering) {
      keep = sampling_.keep_threshold_ns > 0 &&
             latency_ns >= sampling_.keep_threshold_ns;
      if (!keep && sampling_.top_k > 0 && sampling_.window_ns > 0) {
        const std::uint64_t window =
            static_cast<std::uint64_t>(now) /
            static_cast<std::uint64_t>(sampling_.window_ns);
        if (window != topk_window_index_) {
          topk_window_index_ = window;
          topk_heap_.clear();
        }
        const auto min_heap = [](Nanoseconds a, Nanoseconds b) {
          return a > b;
        };
        if (topk_heap_.size() < sampling_.top_k) {
          topk_heap_.push_back(latency_ns);
          std::push_heap(topk_heap_.begin(), topk_heap_.end(), min_heap);
          keep = true;
        } else if (latency_ns > topk_heap_.front()) {
          std::pop_heap(topk_heap_.begin(), topk_heap_.end(), min_heap);
          topk_heap_.back() = latency_ns;
          std::push_heap(topk_heap_.begin(), topk_heap_.end(), min_heap);
          keep = true;
        }
      }
      if (!keep && sampling_.sample_every > 0) {
        keep = residual_counter_++ % sampling_.sample_every == 0;
      }
    }
  }
  if (keep) {
    commands_kept_.fetch_add(1, std::memory_order_relaxed);
    // Buffered events keep their original seq, so snapshot() interleaves
    // them correctly with everything stored while they were pending.
    store_events(buffered);
  } else {
    commands_sampled_out_.fetch_add(1, std::memory_order_relaxed);
    events_sampled_out_.fetch_add(buffered.size(),
                                  std::memory_order_relaxed);
  }
  return report;
}

void TraceRecorder::configure_sampling(const SamplingConfig& config) {
  std::lock_guard<std::mutex> lock(table_mutex_);
  sampling_ = config;
  topk_window_index_ = 0;
  topk_heap_.clear();
  residual_counter_ = 0;
}

SamplingConfig TraceRecorder::sampling_config() const {
  std::lock_guard<std::mutex> lock(table_mutex_);
  return sampling_;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> merged;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    merged.insert(merged.end(), shard.events.begin(), shard.events.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return merged;
}

void TraceRecorder::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.events.clear();
  }
  stored_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    open_.clear();
    topk_window_index_ = 0;
    topk_heap_.clear();
    residual_counter_ = 0;
  }
  commands_seen_.store(0, std::memory_order_relaxed);
  commands_kept_.store(0, std::memory_order_relaxed);
  commands_sampled_out_.store(0, std::memory_order_relaxed);
  events_sampled_out_.store(0, std::memory_order_relaxed);
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

StageBreakdown stage_breakdown(const std::vector<TraceEvent>& events) {
  StageBreakdown breakdown;
  for (const TraceEvent& e : events) {
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
