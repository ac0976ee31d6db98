#include "policy/adaptive_policy.h"

#include <algorithm>
#include <string>

namespace bx::policy {

AdaptivePolicy::AdaptivePolicy(AdaptivePolicyConfig config)
    : config_(config) {
  config_.inline_cutoff_bytes =
      std::min(config_.inline_cutoff_bytes, config_.max_inline_bytes);
  config_.loaded_cutoff_bytes =
      std::min(config_.loaded_cutoff_bytes, config_.max_inline_bytes);
  config_.ewma_alpha = std::clamp(config_.ewma_alpha, 0.01, 1.0);
}

void AdaptivePolicy::bind_metrics(obs::MetricsRegistry& metrics) {
  metrics_ = &metrics;
  metrics.expose_counter("policy.decisions.inline", &decisions_inline_);
  metrics.expose_counter("policy.decisions.dma", &decisions_dma_);
  metrics.expose_counter("policy.rejects", &rejects_);
  metrics.expose_counter("policy.mode_switches", &mode_switches_);
  metrics.expose_counter("policy.shed_enters", &shed_enters_);
  metrics.expose_counter("policy.shed_exits", &shed_exits_);
  metrics.expose_gauge("policy.shedding_queues", &shedding_queues_);
}

void AdaptivePolicy::attach_telemetry(obs::Telemetry& telemetry) {
  telemetry.register_policy(&decisions_inline_, &decisions_dma_, &rejects_,
                            &shedding_queues_);
  telemetry.set_window_observer(this);
}

void AdaptivePolicy::register_queue(std::uint16_t qid,
                                    std::uint32_t queue_depth,
                                    const obs::Gauge* sq_occupancy,
                                    const obs::Gauge* inflight) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queues_.size() <= qid) queues_.resize(qid + 1u);
  if (queues_[qid] == nullptr) {
    queues_[qid] = std::make_unique<QueueState>();
    // Re-registration (init_io_queues rebuilding the pairs) keeps the
    // learned EWMAs and mode; only the sources are refreshed below.
  }
  QueueState& q = *queues_[qid];
  q.qid = qid;
  q.depth = std::max<std::uint32_t>(queue_depth, 1);
  q.sq_occupancy = sq_occupancy;
  q.inflight = inflight;
  if (metrics_ != nullptr) {
    metrics_->expose_gauge(
        "policy.q" + std::to_string(qid) + ".congested", &q.congested);
  }
}

driver::PolicyDecision AdaptivePolicy::decide(
    const driver::IoRequest& request, std::uint16_t qid,
    Nanoseconds /*now*/) {
  const std::uint64_t len = request.write_data.size();
  const bool inline_candidate =
      nvme::is_write_direction(request.opcode) && len > 0;

  std::lock_guard<std::mutex> lock(mutex_);
  QueueState* q = state_locked(qid);
  std::uint64_t cutoff = config_.inline_cutoff_bytes;
  if (q != nullptr) {
    // Blend the window EWMA with the live gauges: a burst that fills the
    // SQ inside one telemetry window must trip the watermark now, not a
    // window later. The EWMA keeps the signal from collapsing to zero
    // the moment a doorbell drains.
    const std::int64_t occ_now =
        q->sq_occupancy != nullptr ? q->sq_occupancy->value() : 0;
    const std::int64_t inflight_now =
        q->inflight != nullptr ? q->inflight->value() : 0;
    const double inst =
        double(std::max<std::int64_t>(std::max(occ_now, inflight_now), 0)) /
        double(q->depth);
    const double eff_occ = std::max(q->occ_ewma, inst);
    if (!q->shedding && eff_occ >= config_.shed_high) {
      q->shedding = true;
      shed_enters_.increment();
      shedding_queues_.add(1);
    } else if (q->shedding && eff_occ <= config_.shed_low) {
      q->shedding = false;
      shed_exits_.increment();
      shedding_queues_.add(-1);
    }
    if (q->shedding) {
      rejects_.increment();
      return {driver::TransferMethod::kPrp, /*shed=*/true};
    }
    if (q->mode == Mode::kCongested) cutoff = config_.loaded_cutoff_bytes;
  }

  driver::PolicyDecision decision;
  if (inline_candidate && len <= cutoff) {
    decision.method = driver::TransferMethod::kByteExpress;
    decisions_inline_.increment();
  } else if (inline_candidate) {
    // Oversized writes ride SGL: byte-granular descriptors move only the
    // payload where page-granular PRP moves a full 4 KB page, and in
    // this testbed's calibration that wire saving beats PRP's cheaper
    // setup at every payload size (bench/ablation_sgl).
    decision.method = driver::TransferMethod::kSgl;
    decisions_dma_.increment();
  } else {
    // Reads and zero-length commands: the native PRP path (inline read
    // delivery is method-agnostic — the completion ring is negotiated
    // independently, docs/READPATH.md).
    decision.method = driver::TransferMethod::kPrp;
    decisions_dma_.increment();
  }
  return decision;
}

void AdaptivePolicy::on_outcome(std::uint16_t qid,
                                driver::TransferMethod /*method*/,
                                const driver::Completion& completion) {
  const std::uint64_t total = completion.breakdown.total_ns();
  if (total == 0) return;
  const double share =
      double(completion.breakdown.of(obs::WaitSegment::kSlotWait)) /
      double(total);
  std::lock_guard<std::mutex> lock(mutex_);
  QueueState* q = state_locked(qid);
  if (q != nullptr) q->slot_share_ewma = mix(q->slot_share_ewma, share);
}

void AdaptivePolicy::on_window(const obs::TelemetrySample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  down_util_ewma_ =
      mix(down_util_ewma_,
          sample.utilization(obs::LinkDir::kDownstream,
                             config_.link_bytes_per_ns));
  up_util_ewma_ = mix(
      up_util_ewma_,
      sample.utilization(obs::LinkDir::kUpstream, config_.link_bytes_per_ns));
  for (const obs::QueueWindow& qw : sample.queues) {
    QueueState* q = state_locked(qw.qid);
    if (q == nullptr) continue;
    const double occ =
        double(std::max<std::int64_t>(
            std::max<std::int64_t>(qw.sq_occupancy, qw.inflight), 0)) /
        double(q->depth);
    q->occ_ewma = mix(q->occ_ewma, occ);
    const double congestion = congestion_locked(*q);
    const bool dwelled =
        sample.end_ns >= q->mode_since_ns &&
        sample.end_ns - q->mode_since_ns >= config_.min_dwell_ns;
    if (q->mode == Mode::kRelaxed && congestion >= config_.congest_high &&
        dwelled) {
      q->mode = Mode::kCongested;
      q->mode_since_ns = sample.end_ns;
      q->congested.set(1);
      mode_switches_.increment();
    } else if (q->mode == Mode::kCongested &&
               congestion <= config_.congest_low && dwelled) {
      q->mode = Mode::kRelaxed;
      q->mode_since_ns = sample.end_ns;
      q->congested.set(0);
      mode_switches_.increment();
    }
  }
}

AdaptivePolicy::QueueStatus AdaptivePolicy::queue_status(
    std::uint16_t qid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  QueueStatus status;
  const QueueState* q = state_locked(qid);
  if (q == nullptr) return status;
  status.known = true;
  status.occupancy_ewma = q->occ_ewma;
  status.slot_share_ewma = q->slot_share_ewma;
  status.congestion = congestion_locked(*q);
  status.congested = q->mode == Mode::kCongested;
  status.shedding = q->shedding;
  return status;
}

double AdaptivePolicy::downstream_util_ewma() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return down_util_ewma_;
}

double AdaptivePolicy::upstream_util_ewma() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return up_util_ewma_;
}

AdaptivePolicy::QueueState* AdaptivePolicy::state_locked(
    std::uint16_t qid) noexcept {
  return qid < queues_.size() ? queues_[qid].get() : nullptr;
}

const AdaptivePolicy::QueueState* AdaptivePolicy::state_locked(
    std::uint16_t qid) const noexcept {
  return qid < queues_.size() ? queues_[qid].get() : nullptr;
}

double AdaptivePolicy::congestion_locked(const QueueState& q) const noexcept {
  return std::max({q.occ_ewma, q.slot_share_ewma,
                   std::max(down_util_ewma_, up_util_ewma_)});
}

}  // namespace bx::policy
