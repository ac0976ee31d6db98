#include "driver/reactor.h"

#include <span>
#include <thread>

namespace bx::driver {

Reactor::Reactor(NvmeDriver& driver, ReactorConfig config)
    : driver_(driver), config_(config), ring_(config.ring_capacity) {}

Reactor::~Reactor() {
  stop();
  // Detach from the registry first: the registry may already be gone by
  // the time the reactor unwinds, and the drain below only needs the
  // reactor's own atomics.
  ring_gauge_ = nullptr;
  posted_metric_ = nullptr;
  rejected_metric_ = nullptr;
  completed_metric_ = nullptr;
  batches_metric_ = nullptr;
  errors_metric_ = nullptr;
  // Late posts after this drain are rejected (stop_ is set), so the ring
  // cannot refill behind us.
  while (poll_once() > 0) {
  }
}

void Reactor::bind_metrics(obs::MetricsRegistry& metrics,
                           const std::string& prefix) {
  ring_gauge_ = &metrics.gauge(prefix + ".ring_occupancy");
  posted_metric_ = &metrics.counter(prefix + ".posted");
  rejected_metric_ = &metrics.counter(prefix + ".rejected");
  completed_metric_ = &metrics.counter(prefix + ".completed");
  batches_metric_ = &metrics.counter(prefix + ".batches");
  errors_metric_ = &metrics.counter(prefix + ".errors");
}

bool Reactor::post(IoRequest request, CompletionCallback on_complete) {
  if (stopped()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (rejected_metric_ != nullptr) rejected_metric_->increment();
    return false;
  }
  Posted posted;
  posted.request = request;
  // Stamp the MPSC-ring entry time: the driver backdates the command's
  // latency window to it, so ring residency is measured and attributed as
  // obs::WaitSegment::kRingWait instead of silently vanishing.
  if (posted.request.origin_ns == 0) {
    posted.request.origin_ns = driver_.clock().now();
  }
  posted.on_complete = std::move(on_complete);
  if (!ring_.try_push(std::move(posted))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (rejected_metric_ != nullptr) rejected_metric_->increment();
    return false;
  }
  posted_.fetch_add(1, std::memory_order_relaxed);
  if (posted_metric_ != nullptr) posted_metric_->increment();
  if (ring_gauge_ != nullptr) {
    ring_gauge_->set(static_cast<std::int64_t>(ring_.occupancy()));
  }
  return true;
}

std::size_t Reactor::poll_once() {
  std::vector<Posted> drained;
  drained.reserve(config_.batch_depth);
  Posted posted;
  while (drained.size() < config_.batch_depth && ring_.try_pop(posted)) {
    drained.push_back(std::move(posted));
  }
  if (ring_gauge_ != nullptr) {
    ring_gauge_->set(static_cast<std::int64_t>(ring_.occupancy()));
  }
  if (drained.empty()) return 0;

  std::vector<IoRequest> requests;
  requests.reserve(drained.size());
  for (const Posted& entry : drained) requests.push_back(entry.request);

  batches_.fetch_add(1, std::memory_order_relaxed);
  if (batches_metric_ != nullptr) batches_metric_->increment();
  auto completions = driver_.execute_batch(
      std::span<const IoRequest>(requests.data(), requests.size()),
      config_.qid);
  if (!completions.is_ok()) {
    // Batch-level failure (validation, wedged device): every poster of
    // this batch learns the same error.
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (errors_metric_ != nullptr) errors_metric_->increment();
    const StatusOr<Completion> error(completions.status());
    for (const Posted& entry : drained) {
      if (entry.on_complete) entry.on_complete(error);
    }
  } else {
    for (std::size_t i = 0; i < drained.size(); ++i) {
      if (drained[i].on_complete) {
        drained[i].on_complete(StatusOr<Completion>((*completions)[i]));
      }
    }
  }
  completed_.fetch_add(drained.size(), std::memory_order_relaxed);
  if (completed_metric_ != nullptr) {
    completed_metric_->add(drained.size());
  }
  return drained.size();
}

void Reactor::run() {
  for (;;) {
    if (poll_once() > 0) continue;
    // Empty poll: exit only once stop() is visible AND nothing is left in
    // the ring (occupancy counts claimed-but-unpublished cells, so a
    // preempted producer's element is still waited for, not dropped).
    if (stopped() && ring_.occupancy() == 0) return;
    std::this_thread::yield();
  }
}

ReactorStats Reactor::stats() const noexcept {
  ReactorStats stats;
  stats.posted = posted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace bx::driver
