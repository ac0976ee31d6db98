// Sharded per-core reactor: the shared-nothing host path.
//
// SPDK-style ownership model: one Reactor drives one SQ/CQ pair and is
// the only thread that submits to it, so the per-SQ lock it takes is
// uncontended. Other cores never submit directly; they hand requests to
// the owner through a bounded lock-free MPSC ring (mpsc_ring.h) and get
// their completion delivered by callback from the owner thread.
//
// The reactor is deliberately threadless: the owner drives it either with
// poll_once() (deterministic tests, manual event loops) or run() (a
// worker-thread body that loops until stop() and then drains the ring
// before returning — no posted request is dropped by shutdown). post()
// after stop() is rejected; a post() racing stop() may be processed or
// rejected, so producers that need the drain guarantee must finish
// posting before calling stop().
//
// Each poll_once() drains up to `batch_depth` requests from the ring and
// issues them through NvmeDriver::execute_batch(), so cross-core traffic
// is what *creates* the coalesced doorbell batches: N posts from N cores
// become one SQE run under one doorbell MWr on the owner's queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "driver/mpsc_ring.h"
#include "driver/nvme_driver.h"
#include "driver/request.h"
#include "obs/metrics.h"

namespace bx::driver {

struct ReactorConfig {
  /// The I/O queue pair this reactor owns.
  std::uint16_t qid = 1;
  /// MPSC ring capacity (power of two >= 2).
  std::size_t ring_capacity = 256;
  /// Max requests drained per poll_once() — the execute_batch size cap,
  /// i.e. the doorbell coalescing window.
  std::uint32_t batch_depth = 8;
};

/// Completion delivery: invoked on the reactor (owner) thread. Receives
/// the per-command Completion, or the batch-level error Status if the
/// whole submission failed before this command completed.
using CompletionCallback = std::function<void(const StatusOr<Completion>&)>;

struct ReactorStats {
  std::uint64_t posted = 0;
  std::uint64_t rejected = 0;   // ring full or reactor stopped
  std::uint64_t completed = 0;  // callbacks delivered
  std::uint64_t batches = 0;    // execute_batch calls issued
  std::uint64_t errors = 0;     // batch-level failures
};

class Reactor {
 public:
  Reactor(NvmeDriver& driver, ReactorConfig config = {});
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;
  ~Reactor();

  [[nodiscard]] const ReactorConfig& config() const noexcept {
    return config_;
  }

  /// Exposes per-reactor telemetry under `prefix` (e.g. "reactor.q1"):
  /// .posted/.rejected/.completed/.batches/.errors counters and the
  /// .ring_occupancy gauge. Call during single-threaded assembly. The
  /// registry must stay alive while post()/poll_once()/run() execute;
  /// destruction detaches, so it need not outlive the reactor itself.
  void bind_metrics(obs::MetricsRegistry& metrics, const std::string& prefix);

  /// Producer side — safe from any thread. Returns false (and counts a
  /// rejection) when the ring is full or the reactor has been stopped;
  /// the callback is NOT invoked in that case.
  bool post(IoRequest request, CompletionCallback on_complete);

  /// Owner side: drain up to batch_depth requests, submit them as one
  /// batch, deliver callbacks in pop (FIFO-per-producer) order. Returns
  /// the number of requests processed (0 = ring was empty).
  std::size_t poll_once();

  /// Owner-thread loop: poll until stop() is observed AND the ring has
  /// drained. Suitable as a std::thread body.
  void run();

  /// Requests shutdown — safe from any thread. run() exits after the
  /// drain; subsequent post() calls are rejected.
  void stop() noexcept { stop_.store(true, std::memory_order_release); }
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t ring_occupancy() const noexcept {
    return ring_.occupancy();
  }
  [[nodiscard]] ReactorStats stats() const noexcept;

 private:
  struct Posted {
    IoRequest request{};
    CompletionCallback on_complete{};
  };

  NvmeDriver& driver_;
  ReactorConfig config_;
  MpscRing<Posted> ring_;
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> errors_{0};

  obs::Gauge* ring_gauge_ = nullptr;
  obs::Counter* posted_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
  obs::Counter* completed_metric_ = nullptr;
  obs::Counter* batches_metric_ = nullptr;
  obs::Counter* errors_metric_ = nullptr;
};

}  // namespace bx::driver
