// PCM-style time-series telemetry for the simulated PCIe link.
//
// The paper's headline evidence is an Intel PCM trace: PCIe MWr/MRd/Cpl
// traffic sampled over time while a workload runs. Telemetry reproduces
// that view for the modeled link: simulated time is divided into fixed
// windows (Config::window_ns, default 10 us) and at every window boundary
// the sampler snapshots
//   * per-direction, per-TLP-kind link flows (TLPs, data bytes, wire
//     bytes), summed over pcie::TrafficCounter's cells,
//   * the payload bytes the host handed to the driver,
//   * the controller's per-stage ledger (the counters behind the 0xC1
//     log page; same taxonomy as TraceStage),
//   * per-queue gauges (SQ occupancy, in-flight commands) and doorbell
//     counts of the driver's queue pairs, plus the controller's
//     inline-chunk backlog gauge,
// into an in-memory ring of TelemetrySample records.
//
// The sampler owns no counters. Each layer keeps the obs::Counter /
// obs::Gauge it already needs and registers it once at assembly; a sample
// column is either the window delta of registered counters or a point
// read of a registered gauge. Nothing on the hot path counts twice.
// Window rolling happens in advance_to(now): a relaxed fast path returns
// while `now` is inside the current window; the slow path takes a mutex
// and closes every expired window. Every delta telescopes against the
// counter's value at the previous close (or at registration), so the sum
// of per-window deltas equals the owners' counters *exactly* once flush()
// has closed the final partial window (tests/traffic_conservation_test.cc
// asserts this against pcie::TrafficCounter for every transfer method).
//
// Idle windows cost no sample. One advance_to() or flush() call may close
// many windows at once (NAND time moves the clock tens of us in one
// step). Nothing counts between two closes of one call, so every window
// after the call's first has zero deltas and the gauges of the window
// before it: an *idle* window. The ring stores it as a count on the
// previous entry, and samples() expands it again, so readers see every
// window. Without an observer, closing k windows costs one sample plus
// O(1) arithmetic. Under concurrent submitters a counter that moves while
// one call closes a run lands in the next sampled window, not inside the
// run; every sum still telescopes.
//
// Layering: bx_obs sits below bx_pcie, so this header cannot name
// pcie::Direction or pcie::TlpType. LinkDir and TlpKind mirror their
// numeric values; PcieLink casts when it registers its counter cells.
//
// Consumers: obs::to_perfetto_json() (counter tracks), obs::
// to_prometheus_text() (exposition snapshot), the bxmon CLI (per-window
// table and the `tsv=` dump), and the adaptive policy (WindowObserver).
// See docs/TELEMETRY.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_clock.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bx::obs {

/// Link direction, numerically identical to pcie::Direction (bx_obs cannot
/// include pcie headers — the dependency points the other way).
enum class LinkDir : std::uint8_t { kDownstream = 0, kUpstream = 1 };
inline constexpr std::size_t kLinkDirs = 2;

/// TLP kind, matching how PCM attributes PCIe bandwidth; numerically
/// identical to pcie::TlpType.
enum class TlpKind : std::uint8_t { kMWr = 0, kMRd = 1, kCpl = 2 };
inline constexpr std::size_t kTlpKinds = 3;

/// Per-stage counters indexed by TraceStage (the controller's ledger).
using StageCounters = std::array<Counter, kStageCount>;
/// Per-segment nanosecond sums indexed by WaitSegment (the driver's).
using WaitCounters = std::array<Counter, kWaitSegmentCount>;

[[nodiscard]] std::string_view link_dir_name(LinkDir dir) noexcept;
[[nodiscard]] std::string_view tlp_kind_name(TlpKind kind) noexcept;

struct TelemetryConfig {
  bool enabled = true;
  /// Window length in simulated nanoseconds (PCM-style sampling period).
  /// Must be > 0 when enabled.
  Nanoseconds window_ns = 10'000;
  /// Windows kept before the oldest are dropped (memory bound for long
  /// runs); drops are counted, never silent. An idle window counts as a
  /// window here, although the ring stores it as a count.
  std::size_t max_windows = 1u << 16;
};

/// One (TLPs, data bytes, wire bytes) cell — the per-window analog of
/// pcie::TrafficCell.
struct FlowCell {
  std::uint64_t tlps = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t wire_bytes = 0;

  FlowCell& operator+=(const FlowCell& other) noexcept {
    tlps += other.tlps;
    data_bytes += other.data_bytes;
    wire_bytes += other.wire_bytes;
    return *this;
  }
};

/// Per-queue state captured at a window boundary from the driver's queue
/// pair: gauges are sampled (point-in-time), doorbells are deltas over the
/// window.
struct QueueWindow {
  std::uint16_t qid = 0;
  std::int64_t sq_occupancy = 0;
  std::int64_t inflight = 0;
  std::uint64_t sq_doorbells = 0;
  /// SQ slots (SQEs + inline chunks) published by those doorbells; with
  /// batched submission sq_entries / sq_doorbells is the per-window
  /// coalescing factor (1.0 = no coalescing).
  std::uint64_t sq_entries = 0;
  std::uint64_t cq_doorbells = 0;
};

/// Per-tenant state captured at a window boundary: service counters are
/// deltas over the window (sampled from the admission controller's and
/// scheduler's component-owned counters), inflight_slots is a gauge.
struct TenantWindow {
  std::uint16_t tenant = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t completions = 0;
  /// In-flight inline SQ slots charged against the tenant's budget.
  std::int64_t inflight_slots = 0;
};

/// One closed telemetry window.
struct TelemetrySample {
  std::uint64_t index = 0;
  Nanoseconds start_ns = 0;
  Nanoseconds end_ns = 0;

  /// flow[LinkDir][TlpKind], deltas over the window (PcieLink's
  /// TrafficCounter, summed over traffic classes).
  std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs> flow{};
  /// Write-direction payload bytes the driver published during the window.
  std::uint64_t payload_bytes = 0;
  /// Controller stage-ledger deltas (TraceStage taxonomy, I/O queues).
  std::array<std::uint64_t, kStageCount> stage_count{};
  std::array<std::uint64_t, kStageCount> stage_ns{};
  /// Controller inline backlog gauge at window close (BandSlim streams +
  /// deferred OOO commands + in-flight reassemblies).
  std::int64_t backlog = 0;
  /// Wait/service attribution over the window (the driver's counters):
  /// commands whose breakdown was reported, and the per-segment nanosecond
  /// sums (LatencyBreakdown taxonomy — obs/attribution.h). wait_ns summed
  /// over all segments equals the total latency of those commands,
  /// exactly (additivity).
  std::uint64_t wait_count = 0;
  std::array<std::uint64_t, kWaitSegmentCount> wait_ns{};
  std::vector<QueueWindow> queues;
  /// Per-tenant service deltas (empty when no tenants are registered).
  std::vector<TenantWindow> tenants;
  /// Adaptive-policy activity over the window (all zero until
  /// register_policy() is called — see docs/POLICY.md): kAuto decisions
  /// resolved inline / descriptor-DMA (SGL or PRP) and shed rejections
  /// are deltas; shedding queues is a gauge sampled at window close.
  std::uint64_t policy_inline = 0;
  std::uint64_t policy_dma = 0;
  std::uint64_t policy_rejects = 0;
  std::int64_t policy_shedding = 0;

  [[nodiscard]] const FlowCell& of(LinkDir dir, TlpKind kind) const noexcept {
    return flow[static_cast<std::size_t>(dir)][static_cast<std::size_t>(kind)];
  }
  /// Sum over TLP kinds for one direction.
  [[nodiscard]] FlowCell dir_total(LinkDir dir) const noexcept;
  /// Wire bytes over both directions and all kinds.
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept;
  /// Fraction of the window the link spent serializing `dir` traffic at
  /// `bytes_per_ns` (PcieLink's effective rate). 0 for an empty window.
  [[nodiscard]] double utilization(LinkDir dir, double bytes_per_ns)
      const noexcept;
};

class Telemetry {
 public:
  /// Consumer of every closed window, invoked synchronously from
  /// close_locked() with the telemetry mutex held. Each idle window is
  /// delivered on its own, with its index and bounds. The observer
  /// must only update its own (innermost-locked) state: calling back into
  /// Telemetry, the driver or the link from on_window() deadlocks. The
  /// adaptive policy (policy::AdaptivePolicy) uses this to run its EWMA
  /// updates and hysteresis transitions on the window grid.
  class WindowObserver {
   public:
    virtual ~WindowObserver() = default;
    virtual void on_window(const TelemetrySample& sample) = 0;
  };

  explicit Telemetry(TelemetryConfig config = {});
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Reconfigures the sampler. Call during testbed assembly, before
  /// traffic flows. Both this and the constructor assert window_ns > 0
  /// when the sampler is enabled: a zero-length window never ends.
  void configure(const TelemetryConfig& config);
  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  /// The link's effective data rate, for utilization percentages. Set by
  /// the Testbed from LinkConfig::bytes_per_ns().
  void set_link_rate(double bytes_per_ns) noexcept {
    bytes_per_ns_ = bytes_per_ns;
  }
  [[nodiscard]] double link_rate() const noexcept { return bytes_per_ns_; }

  // ---- registration (single-threaded testbed assembly) ----
  //
  // Every source is component-owned and must outlive the Telemetry reads.
  // A counter's window deltas count from its value at registration; a
  // null pointer samples as 0. Register before submitter threads start
  // (same rule as init_io_queues()).

  /// Adds one link counter cell to flow[dir][kind]. PcieLink registers
  /// every (direction, class, TLP type) cell of its TrafficCounter, so a
  /// flow column is the sum over traffic classes.
  void register_flow(LinkDir dir, TlpKind kind, const Counter* tlps,
                     const Counter* data_bytes, const Counter* wire_bytes);
  /// The controller's per-stage ledger and its inline-backlog gauge.
  void register_controller(const StageCounters& stage_count,
                           const StageCounters& stage_ns,
                           const Gauge* backlog);
  /// The driver's write-payload bytes and its completed-command wait
  /// breakdown sums (command count and per-segment nanoseconds).
  void register_driver(const Counter* payload_bytes, const Counter* waits,
                       const WaitCounters& wait_ns);
  /// Queue `qid`'s occupancy gauges and doorbell counters (the driver's
  /// QueuePair). Re-registering a qid replaces its sources.
  void register_queue(std::uint16_t qid, const Gauge* sq_occupancy,
                      const Gauge* inflight, const Counter* sq_doorbells,
                      const Counter* sq_entries, const Counter* cq_doorbells);
  /// Tenant `tenant`'s service counters (tenant::AdmissionController /
  /// tenant::TenantScheduler) and its in-flight-slots gauge.
  /// Re-registering a tenant replaces its sources.
  void register_tenant(std::uint16_t tenant, const Counter* admitted,
                       const Counter* rejected, const Counter* payload_bytes,
                       const Counter* completions,
                       const Gauge* inflight_slots);
  /// The adaptive policy's decision counters (TelemetrySample::policy_*)
  /// and its shedding-queues gauge.
  void register_policy(const Counter* inline_decisions,
                       const Counter* dma_decisions, const Counter* rejects,
                       const Gauge* shedding_queues);

  /// Attaches the window observer (null detaches). Assembly-time only.
  void set_window_observer(WindowObserver* observer) noexcept {
    observer_ = observer;
  }

  // ---- window rolling ----

  /// Closes every window that `now` has moved past: the first as a
  /// sample, the rest as idle windows. The common case (still inside the
  /// current window) is one relaxed load.
  void advance_to(Nanoseconds now);
  /// The end of the open window: advance_to(t) closes a window iff
  /// t >= next_close_ns(). The maximum time when sampling is disabled.
  /// PcieLink reads it to end a bulk chunk-run step at the read that
  /// closes a window (PcieLink::reads_until_sample).
  [[nodiscard]] Nanoseconds next_close_ns() const noexcept {
    return config_.enabled ? window_end_.load(std::memory_order_relaxed)
                           : std::numeric_limits<Nanoseconds>::max();
  }
  /// advance_to(now), then closes the in-progress partial window — even
  /// an empty one, [now, now) — so that sample sums reconcile exactly with
  /// the owners' counters. The next window starts at `now`.
  void flush(Nanoseconds now);
  /// Drops all samples and re-baselines deltas at `now` (the Testbed's
  /// reset_counters() analog — the owners keep counting, only the
  /// sampling restarts).
  void clear(Nanoseconds now);

  // ---- consumption ----

  /// Every window in the ring, oldest first, idle windows expanded: one
  /// sample per window, with consecutive index, start_ns and end_ns.
  [[nodiscard]] std::vector<TelemetrySample> samples() const;
  [[nodiscard]] std::uint64_t windows_closed() const noexcept {
    return windows_closed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t windows_dropped() const noexcept {
    return windows_dropped_.load(std::memory_order_relaxed);
  }

  /// Sums flow cells over `samples` (conservation checks, summaries).
  [[nodiscard]] static std::array<std::array<FlowCell, kTlpKinds>, kLinkDirs>
  sum_flows(const std::vector<TelemetrySample>& samples);

  /// Merges adjacent windows until at most `max_points` remain. Sums
  /// (flows, payload, stages, doorbells) are preserved exactly; gauges
  /// keep the last-window value. Bounds the bxmon per-window table.
  [[nodiscard]] static std::vector<TelemetrySample> downsample(
      std::vector<TelemetrySample> samples, std::size_t max_points);

  /// Deterministic TSV rendering of `samples` — the bxmon dump/ingest
  /// format. The header comment embeds `bytes_per_ns` so an ingesting
  /// bxmon can recompute utilization.
  [[nodiscard]] static std::string dump_tsv(
      const std::vector<TelemetrySample>& samples, double bytes_per_ns);

 private:
  /// A registered counter and the value its next window delta counts
  /// from: the one delta helper behind every summed column.
  class Tap {
   public:
    Tap() = default;
    explicit Tap(const Counter* counter) noexcept
        : counter_(counter), base_(read()) {}
    /// The counter's growth since registration or the previous take().
    std::uint64_t take() noexcept {
      const std::uint64_t now = read();
      const std::uint64_t delta = now - base_;
      base_ = now;
      return delta;
    }

   private:
    [[nodiscard]] std::uint64_t read() const noexcept {
      return counter_ != nullptr ? counter_->value() : 0;
    }
    const Counter* counter_ = nullptr;
    std::uint64_t base_ = 0;
  };

  struct FlowSource {
    std::size_t dir = 0;
    std::size_t kind = 0;
    Tap tlps, data_bytes, wire_bytes;
  };
  struct QueueSource {
    const Gauge* sq_occupancy = nullptr;
    const Gauge* inflight = nullptr;
    Tap sq_doorbells, sq_entries, cq_doorbells;
  };
  struct TenantSource {
    std::uint16_t tenant = 0;
    Tap admitted, rejected, payload_bytes, completions;
    const Gauge* inflight_slots = nullptr;
  };

  /// A closed window and the idle windows after it, which have zero
  /// deltas and its gauges. Only a full window starts a run of idle ones.
  struct Entry {
    TelemetrySample sample;
    std::uint64_t idle = 0;
  };

  /// Reads every source into the sample [window_start_, end), moving each
  /// tap's baseline to the current counter value.
  TelemetrySample take_sample_locked(Nanoseconds end);
  /// Closes every full window that `now` has moved past, if any.
  void close_expired_locked(Nanoseconds now);
  /// Closes [window_start_, end) as a sample and then `idle` more windows
  /// as a count on its entry.
  void close_locked(Nanoseconds end, std::uint64_t idle);
  /// Drops the oldest windows until at most max_windows remain.
  void drop_oldest_locked();

  TelemetryConfig config_;
  double bytes_per_ns_ = 1.0;

  // Registered sources, all under mutex_.
  std::vector<FlowSource> flows_;
  std::array<Tap, kStageCount> stage_count_{};
  std::array<Tap, kStageCount> stage_ns_{};
  const Gauge* backlog_ = nullptr;
  Tap payload_bytes_;
  Tap waits_;
  std::array<Tap, kWaitSegmentCount> wait_ns_{};
  /// Keyed by qid, so samples list queues in qid order; the admin queue
  /// is never registered.
  std::map<std::uint16_t, QueueSource> queues_;
  /// In registration order.
  std::vector<TenantSource> tenants_;
  Tap policy_inline_, policy_dma_, policy_rejects_;
  const Gauge* policy_shedding_ = nullptr;
  WindowObserver* observer_ = nullptr;

  /// End of the currently open window — the advance_to() fast-path guard.
  std::atomic<Nanoseconds> window_end_;
  std::atomic<std::uint64_t> windows_closed_{0};
  std::atomic<std::uint64_t> windows_dropped_{0};

  // Window-rolling state, all under mutex_.
  mutable std::mutex mutex_;
  Nanoseconds window_start_ = 0;
  std::uint64_t next_index_ = 0;
  std::deque<Entry> ring_;
  /// Windows held by ring_: its entries plus their idle counts.
  std::uint64_t ring_windows_ = 0;
};

}  // namespace bx::obs
