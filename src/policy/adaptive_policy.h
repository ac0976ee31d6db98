// Online adaptive transfer-method selection with overload control.
//
// AdaptivePolicy is the concrete engine behind TransferMethod::kAuto
// (driver::MethodPolicy). Per queue it tracks exponentially weighted
// moving averages of the saturation signals ByteExpress cares about —
// SQ occupancy, per-direction link utilization (from telemetry windows)
// and the slot-wait share of the PR 8 latency breakdown — and derives:
//
//   * a two-state hysteresis machine (Relaxed / Congested) with a
//     minimum dwell time that selects the inline-size cutoff: small
//     payloads ride ByteExpress while the link is cheap, larger writes
//     ride SGL (byte-granular descriptors — the measured winner over
//     page-granular PRP at every size, bench/ablation_sgl), and the
//     cutoff tightens under congestion so bulky inline bursts stop
//     competing with DMA traffic for SQ slots;
//   * explicit overload control: when effective occupancy crosses the
//     shed high-watermark the queue rejects kAuto submissions with
//     kResourceExhausted until it drains below the low-watermark
//     (classic hysteresis so backpressure does not flap).
//
// EWMA/hysteresis updates run on the telemetry window grid
// (obs::Telemetry::WindowObserver::on_window); decide() additionally
// blends the instantaneous occupancy gauges registered by the driver so
// shedding reacts within a burst rather than a window later.
//
// Threading: one internal mutex, always innermost (see the contract in
// driver/method_policy.h). decide() is called lock-free from submitters,
// on_outcome() under the queue's pending_mutex, on_window() under the
// telemetry mutex — none of them call back out of the policy.
//
// Observability (docs/POLICY.md): policy.* counters/gauges via
// bind_metrics(), per-window decision deltas via attach_telemetry()
// (TelemetrySample::policy_*), and kFlagAutoPolicy on kSubmit traces.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/sim_clock.h"
#include "driver/method_policy.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace bx::policy {

struct AdaptivePolicyConfig {
  /// Inline-size cutoff while Relaxed: writes at or below ride
  /// ByteExpress, larger go SGL. Clamped to NvmeDriver::kMaxInlineBytes,
  /// so decide() never picks an infeasible inline transfer. The
  /// default sits at the measured ByteExpress/SGL latency crossover
  /// (between 128 B and 256 B in this testbed's calibration).
  std::uint64_t inline_cutoff_bytes = 128;
  /// Tighter cutoff while Congested (inline chunks hold SQ slots).
  std::uint64_t loaded_cutoff_bytes = 64;
  /// EWMA smoothing factor in (0, 1]; higher reacts faster.
  double ewma_alpha = 0.30;
  /// Hysteresis thresholds on the congestion score (max of the EWMAs).
  double congest_high = 0.70;
  double congest_low = 0.40;
  /// Minimum time in a mode before the hysteresis machine may leave it.
  Nanoseconds min_dwell_ns = 200'000;
  /// Overload watermarks on effective occupancy (EWMA blended with the
  /// instantaneous gauges): shed at/above high, reopen at/below low.
  double shed_high = 0.90;
  double shed_low = 0.50;
  /// Link serialization rate for window utilization (pcie config).
  double link_bytes_per_ns = 1.0;
};

class AdaptivePolicy final : public driver::MethodPolicy,
                             public obs::Telemetry::WindowObserver {
 public:
  explicit AdaptivePolicy(AdaptivePolicyConfig config = {});

  // driver::MethodPolicy
  [[nodiscard]] driver::PolicyDecision decide(const driver::IoRequest& request,
                                              std::uint16_t qid,
                                              Nanoseconds now) override;
  void on_outcome(std::uint16_t qid, driver::TransferMethod method,
                  const driver::Completion& completion) override;
  void register_queue(std::uint16_t qid, std::uint32_t queue_depth,
                      const obs::Gauge* sq_occupancy,
                      const obs::Gauge* inflight) override;

  // obs::Telemetry::WindowObserver — EWMA + hysteresis updates on the
  // window grid. Called under the telemetry mutex; touches only policy
  // state.
  void on_window(const obs::TelemetrySample& sample) override;

  /// Exposes policy.decisions.inline/.dma, policy.rejects,
  /// policy.mode_switches, policy.shed_enters/.exits and the
  /// policy.shedding_queues gauge; keeps the registry pointer so
  /// register_queue() can expose per-queue policy.qN.congested gauges.
  /// Assembly-time only, before register_queue().
  void bind_metrics(obs::MetricsRegistry& metrics);

  /// Registers the decision counters for per-window delta sampling
  /// (TelemetrySample::policy_*) and attaches this policy as the window
  /// observer. Assembly-time only.
  void attach_telemetry(obs::Telemetry& telemetry);

  /// Test/monitor introspection (point-in-time, under the policy mutex).
  struct QueueStatus {
    bool known = false;
    double occupancy_ewma = 0.0;
    double slot_share_ewma = 0.0;
    double congestion = 0.0;
    bool congested = false;
    bool shedding = false;
  };
  [[nodiscard]] QueueStatus queue_status(std::uint16_t qid) const;
  [[nodiscard]] double downstream_util_ewma() const;
  [[nodiscard]] double upstream_util_ewma() const;
  [[nodiscard]] const AdaptivePolicyConfig& config() const noexcept {
    return config_;
  }

 private:
  enum class Mode { kRelaxed, kCongested };

  struct QueueState {
    std::uint16_t qid = 0;
    std::uint32_t depth = 1;
    const obs::Gauge* sq_occupancy = nullptr;
    const obs::Gauge* inflight = nullptr;
    double occ_ewma = 0.0;
    double slot_share_ewma = 0.0;
    Mode mode = Mode::kRelaxed;
    Nanoseconds mode_since_ns = 0;
    bool shedding = false;
    /// 1 while Congested — exposed as policy.qN.congested.
    obs::Gauge congested;
  };

  [[nodiscard]] QueueState* state_locked(std::uint16_t qid) noexcept;
  [[nodiscard]] const QueueState* state_locked(
      std::uint16_t qid) const noexcept;
  [[nodiscard]] double congestion_locked(const QueueState& q) const noexcept;
  [[nodiscard]] double mix(double ewma, double sample) const noexcept {
    return ewma + config_.ewma_alpha * (sample - ewma);
  }

  AdaptivePolicyConfig config_;
  obs::MetricsRegistry* metrics_ = nullptr;

  mutable std::mutex mutex_;  // innermost — never call out while held
  std::vector<std::unique_ptr<QueueState>> queues_;
  double down_util_ewma_ = 0.0;
  double up_util_ewma_ = 0.0;

  obs::Counter decisions_inline_;
  obs::Counter decisions_dma_;
  obs::Counter rejects_;
  obs::Counter mode_switches_;
  obs::Counter shed_enters_;
  obs::Counter shed_exits_;
  obs::Gauge shedding_queues_;
};

}  // namespace bx::policy
