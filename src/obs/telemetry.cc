#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "common/status.h"

namespace bx::obs {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

/// Turns `sample` into the idle window `windows` windows after it: every
/// delta column reads 0, every gauge keeps its value, and the bounds move
/// on by `windows` lengths of the sample's own window. A delta column
/// added to TelemetrySample must be zeroed here too.
void skip_idle(TelemetrySample& sample, std::uint64_t windows) noexcept {
  sample.flow = {};
  sample.payload_bytes = 0;
  sample.stage_count = {};
  sample.stage_ns = {};
  sample.wait_count = 0;
  sample.wait_ns = {};
  for (QueueWindow& queue : sample.queues) {
    queue.sq_doorbells = queue.sq_entries = queue.cq_doorbells = 0;
  }
  for (TenantWindow& tenant : sample.tenants) {
    tenant.admitted = tenant.rejected = tenant.payload_bytes =
        tenant.completions = 0;
  }
  sample.policy_inline = sample.policy_dma = sample.policy_rejects = 0;
  const Nanoseconds length = sample.end_ns - sample.start_ns;
  sample.index += windows;
  sample.start_ns += windows * length;
  sample.end_ns += windows * length;
}

}  // namespace

std::string_view link_dir_name(LinkDir dir) noexcept {
  return dir == LinkDir::kDownstream ? "downstream" : "upstream";
}

std::string_view tlp_kind_name(TlpKind kind) noexcept {
  switch (kind) {
    case TlpKind::kMWr: return "mwr";
    case TlpKind::kMRd: return "mrd";
    case TlpKind::kCpl: return "cpl";
  }
  return "?";
}

FlowCell TelemetrySample::dir_total(LinkDir dir) const noexcept {
  FlowCell total;
  for (const FlowCell& cell : flow[static_cast<std::size_t>(dir)]) {
    total += cell;
  }
  return total;
}

std::uint64_t TelemetrySample::wire_bytes() const noexcept {
  return dir_total(LinkDir::kDownstream).wire_bytes +
         dir_total(LinkDir::kUpstream).wire_bytes;
}

double TelemetrySample::utilization(LinkDir dir,
                                    double bytes_per_ns) const noexcept {
  if (end_ns <= start_ns || bytes_per_ns <= 0.0) return 0.0;
  const double serialize_ns =
      double(dir_total(dir).wire_bytes) / bytes_per_ns;
  return serialize_ns / double(end_ns - start_ns);
}

Telemetry::Telemetry(TelemetryConfig config)
    : config_(config), window_end_(config.window_ns) {
  BX_ASSERT(!config_.enabled || config_.window_ns > 0);
}

void Telemetry::configure(const TelemetryConfig& config) {
  BX_ASSERT(!config.enabled || config.window_ns > 0);
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  window_end_.store(window_start_ + config_.window_ns, kRelaxed);
}

void Telemetry::register_flow(LinkDir dir, TlpKind kind, const Counter* tlps,
                              const Counter* data_bytes,
                              const Counter* wire_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  flows_.push_back({static_cast<std::size_t>(dir),
                    static_cast<std::size_t>(kind), Tap(tlps),
                    Tap(data_bytes), Tap(wire_bytes)});
}

void Telemetry::register_controller(const StageCounters& stage_count,
                                    const StageCounters& stage_ns,
                                    const Gauge* backlog) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_count_[i] = Tap(&stage_count[i]);
    stage_ns_[i] = Tap(&stage_ns[i]);
  }
  backlog_ = backlog;
}

void Telemetry::register_driver(const Counter* payload_bytes,
                                const Counter* waits,
                                const WaitCounters& wait_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  payload_bytes_ = Tap(payload_bytes);
  waits_ = Tap(waits);
  for (std::size_t i = 0; i < kWaitSegmentCount; ++i) {
    wait_ns_[i] = Tap(&wait_ns[i]);
  }
}

void Telemetry::register_queue(std::uint16_t qid, const Gauge* sq_occupancy,
                               const Gauge* inflight,
                               const Counter* sq_doorbells,
                               const Counter* sq_entries,
                               const Counter* cq_doorbells) {
  std::lock_guard<std::mutex> lock(mutex_);
  queues_[qid] = {sq_occupancy, inflight, Tap(sq_doorbells), Tap(sq_entries),
                  Tap(cq_doorbells)};
}

void Telemetry::register_tenant(std::uint16_t tenant, const Counter* admitted,
                                const Counter* rejected,
                                const Counter* payload_bytes,
                                const Counter* completions,
                                const Gauge* inflight_slots) {
  std::lock_guard<std::mutex> lock(mutex_);
  const TenantSource source{tenant,           Tap(admitted),
                            Tap(rejected),    Tap(payload_bytes),
                            Tap(completions), inflight_slots};
  for (TenantSource& existing : tenants_) {
    if (existing.tenant == tenant) {
      existing = source;
      return;
    }
  }
  tenants_.push_back(source);
}

void Telemetry::register_policy(const Counter* inline_decisions,
                                const Counter* dma_decisions,
                                const Counter* rejects,
                                const Gauge* shedding_queues) {
  std::lock_guard<std::mutex> lock(mutex_);
  policy_inline_ = Tap(inline_decisions);
  policy_dma_ = Tap(dma_decisions);
  policy_rejects_ = Tap(rejects);
  policy_shedding_ = shedding_queues;
}

TelemetrySample Telemetry::take_sample_locked(Nanoseconds end) {
  const auto read = [](const Gauge* gauge) -> std::int64_t {
    return gauge != nullptr ? gauge->value() : 0;
  };
  TelemetrySample sample;
  sample.start_ns = window_start_;
  sample.end_ns = end;
  for (FlowSource& source : flows_) {
    sample.flow[source.dir][source.kind] +=
        FlowCell{source.tlps.take(), source.data_bytes.take(),
                 source.wire_bytes.take()};
  }
  sample.payload_bytes = payload_bytes_.take();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    sample.stage_count[i] = stage_count_[i].take();
    sample.stage_ns[i] = stage_ns_[i].take();
  }
  sample.backlog = read(backlog_);
  sample.wait_count = waits_.take();
  for (std::size_t i = 0; i < kWaitSegmentCount; ++i) {
    sample.wait_ns[i] = wait_ns_[i].take();
  }
  for (auto& [qid, source] : queues_) {
    sample.queues.push_back({qid, read(source.sq_occupancy),
                             read(source.inflight), source.sq_doorbells.take(),
                             source.sq_entries.take(),
                             source.cq_doorbells.take()});
  }
  for (TenantSource& source : tenants_) {
    sample.tenants.push_back(
        {source.tenant, source.admitted.take(), source.rejected.take(),
         source.payload_bytes.take(), source.completions.take(),
         read(source.inflight_slots)});
  }
  sample.policy_inline = policy_inline_.take();
  sample.policy_dma = policy_dma_.take();
  sample.policy_rejects = policy_rejects_.take();
  sample.policy_shedding = read(policy_shedding_);
  return sample;
}

void Telemetry::close_locked(Nanoseconds end, std::uint64_t idle) {
  TelemetrySample sample = take_sample_locked(end);
  sample.index = next_index_;
  if (observer_ != nullptr) {
    observer_->on_window(sample);
    if (idle != 0) {
      TelemetrySample window = sample;
      for (std::uint64_t i = 0; i < idle; ++i) {
        skip_idle(window, 1);
        observer_->on_window(window);
      }
    }
  }

  const std::uint64_t windows = 1 + idle;
  ring_.push_back({std::move(sample), idle});
  ring_windows_ += windows;
  drop_oldest_locked();
  windows_closed_.fetch_add(windows, kRelaxed);

  next_index_ += windows;
  window_start_ = end + idle * config_.window_ns;
  window_end_.store(window_start_ + config_.window_ns, kRelaxed);
}

void Telemetry::drop_oldest_locked() {
  while (ring_windows_ > config_.max_windows) {
    Entry& oldest = ring_.front();
    const std::uint64_t excess = ring_windows_ - config_.max_windows;
    std::uint64_t dropped = 1 + oldest.idle;
    if (excess < dropped) {
      // The drop ends inside the run: its first `excess` windows go, and
      // the entry now starts at the idle window after them.
      dropped = excess;
      skip_idle(oldest.sample, excess);
      oldest.idle -= excess;
    } else {
      ring_.pop_front();
    }
    ring_windows_ -= dropped;
    windows_dropped_.fetch_add(dropped, kRelaxed);
  }
}

void Telemetry::close_expired_locked(Nanoseconds now) {
  // Checked under the lock: another thread may have rolled the window.
  const Nanoseconds end = window_start_ + config_.window_ns;
  if (now < end) return;
  // No counter moves between the closes of one call, so every window
  // after the first is idle.
  close_locked(end, (now - end) / config_.window_ns);
}

void Telemetry::advance_to(Nanoseconds now) {
  if (!config_.enabled) return;
  if (now < window_end_.load(kRelaxed)) return;  // fast path
  std::lock_guard<std::mutex> lock(mutex_);
  close_expired_locked(now);
}

void Telemetry::flush(Nanoseconds now) {
  if (!config_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  close_expired_locked(now);
  // Close the in-progress partial window (delta residuals -> sample) so
  // sample sums match the owners' counters exactly — also when it is
  // empty, [now, now): advance_to(now) may have closed a window ending at
  // `now` before a counter moved. Its length differs from the grid's, so
  // it is a sample, never idle. The window grid restarts at `now`.
  close_locked(now, 0);
}

void Telemetry::clear(Nanoseconds now) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A dropped sample moves every baseline to the owners' current values:
  // the owners keep counting upward, only the sampling restarts.
  take_sample_locked(now);
  ring_.clear();
  ring_windows_ = 0;
  next_index_ = 0;
  windows_closed_.store(0, kRelaxed);
  windows_dropped_.store(0, kRelaxed);
  window_start_ = now;
  window_end_.store(now + config_.window_ns, kRelaxed);
}

std::vector<TelemetrySample> Telemetry::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TelemetrySample> out;
  out.reserve(ring_windows_);
  for (const Entry& entry : ring_) {
    out.push_back(entry.sample);
    for (std::uint64_t i = 0; i < entry.idle; ++i) {
      out.push_back(out.back());
      skip_idle(out.back(), 1);
    }
  }
  return out;
}

std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs> Telemetry::sum_flows(
    const std::vector<TelemetrySample>& samples) {
  std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs> total{};
  for (const TelemetrySample& sample : samples) {
    for (std::size_t dir = 0; dir < kLinkDirs; ++dir) {
      for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
        total[dir][kind] += sample.flow[dir][kind];
      }
    }
  }
  return total;
}

std::vector<TelemetrySample> Telemetry::downsample(
    std::vector<TelemetrySample> samples, std::size_t max_points) {
  if (max_points == 0 || samples.size() <= max_points) return samples;
  // Merge runs of ceil(n / max_points) adjacent windows. Sums accumulate;
  // gauges (occupancy, backlog) keep the run's final value, matching the
  // point-in-time semantics of a coarser sampling window.
  const std::size_t stride =
      (samples.size() + max_points - 1) / max_points;
  std::vector<TelemetrySample> merged;
  merged.reserve((samples.size() + stride - 1) / stride);
  for (std::size_t begin = 0; begin < samples.size(); begin += stride) {
    const std::size_t end = std::min(begin + stride, samples.size());
    TelemetrySample out = samples[end - 1];  // gauges + end_ns from the last
    out.index = merged.size();
    out.start_ns = samples[begin].start_ns;
    for (std::size_t i = begin; i + 1 < end; ++i) {
      const TelemetrySample& add = samples[i];
      for (std::size_t dir = 0; dir < kLinkDirs; ++dir) {
        for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
          out.flow[dir][kind] += add.flow[dir][kind];
        }
      }
      out.payload_bytes += add.payload_bytes;
      for (std::size_t s = 0; s < kStageCount; ++s) {
        out.stage_count[s] += add.stage_count[s];
        out.stage_ns[s] += add.stage_ns[s];
      }
      out.wait_count += add.wait_count;
      for (std::size_t s = 0; s < kWaitSegmentCount; ++s) {
        out.wait_ns[s] += add.wait_ns[s];
      }
      for (const QueueWindow& qw : add.queues) {
        for (QueueWindow& target : out.queues) {
          if (target.qid == qw.qid) {
            target.sq_doorbells += qw.sq_doorbells;
            target.sq_entries += qw.sq_entries;
            target.cq_doorbells += qw.cq_doorbells;
          }
        }
      }
      for (const TenantWindow& tw : add.tenants) {
        for (TenantWindow& target : out.tenants) {
          if (target.tenant == tw.tenant) {
            target.admitted += tw.admitted;
            target.rejected += tw.rejected;
            target.payload_bytes += tw.payload_bytes;
            target.completions += tw.completions;
          }
        }
      }
      out.policy_inline += add.policy_inline;
      out.policy_dma += add.policy_dma;
      out.policy_rejects += add.policy_rejects;
    }
    merged.push_back(std::move(out));
  }
  return merged;
}

std::string Telemetry::dump_tsv(const std::vector<TelemetrySample>& samples,
                                double bytes_per_ns) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "# bx-telemetry v1 bytes_per_ns=%.6f\n",
                bytes_per_ns);
  out += line;
  out +=
      "# index\tstart_ns\tend_ns"
      "\tmwr_tlps_down\tmwr_data_down\tmwr_wire_down"
      "\tmrd_tlps_down\tmrd_data_down\tmrd_wire_down"
      "\tcpl_tlps_down\tcpl_data_down\tcpl_wire_down"
      "\tmwr_tlps_up\tmwr_data_up\tmwr_wire_up"
      "\tmrd_tlps_up\tmrd_data_up\tmrd_wire_up"
      "\tcpl_tlps_up\tcpl_data_up\tcpl_wire_up"
      "\tpayload_bytes\tbacklog\n";
  for (const TelemetrySample& sample : samples) {
    std::snprintf(line, sizeof(line), "%llu\t%llu\t%llu",
                  static_cast<unsigned long long>(sample.index),
                  static_cast<unsigned long long>(sample.start_ns),
                  static_cast<unsigned long long>(sample.end_ns));
    out += line;
    for (std::size_t dir = 0; dir < kLinkDirs; ++dir) {
      for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
        const FlowCell& cell = sample.flow[dir][kind];
        std::snprintf(line, sizeof(line), "\t%llu\t%llu\t%llu",
                      static_cast<unsigned long long>(cell.tlps),
                      static_cast<unsigned long long>(cell.data_bytes),
                      static_cast<unsigned long long>(cell.wire_bytes));
        out += line;
      }
    }
    std::snprintf(line, sizeof(line), "\t%llu\t%lld\n",
                  static_cast<unsigned long long>(sample.payload_bytes),
                  static_cast<long long>(sample.backlog));
    out += line;
  }
  return out;
}

}  // namespace bx::obs
