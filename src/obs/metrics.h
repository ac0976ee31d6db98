// Named metrics registry: counters, gauges and latency histograms with a
// deterministic JSON export.
//
// Two ownership modes:
//   * registry-owned — counter()/gauge()/histogram() create (or look up)
//     a metric and hand back a reference that stays valid for the
//     registry's lifetime, so hot paths cache the pointer once and then
//     update lock-free;
//   * borrowed — expose_counter() publishes a component-owned Counter
//     (e.g. the controller's transfer-path counters, which also feed the
//     0xC0 log page) under a name, without copying or double counting.
//
// Counters and gauges are relaxed atomics: safe from any thread, exact
// once the system quiesces. An owner that already serializes a counter's
// writers (pcie::TrafficCounter) adds with add_locked() instead.
// Histograms are lock-striped (one mutex + LatencyHistogram per stripe,
// hashed by thread), so concurrent recorders on hot per-command paths
// contend only when they share a stripe; snapshot() merges the stripes
// into one exact LatencyHistogram.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace bx::obs {

class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  /// add() for an owner that serializes every writer of this counter
  /// under a lock of its own: a relaxed load and store instead of a
  /// locked read-modify-write. Readers still load without that lock.
  void add_locked(std::uint64_t n) noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  void record(std::uint64_t value) noexcept {
    Stripe& stripe = stripes_[stripe_index()];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.histogram.record(value);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      total += stripe.histogram.count();
    }
    return total;
  }
  /// Exact merge of all stripes — identical distribution to the former
  /// single-mutex histogram (stripes share the bucket layout).
  [[nodiscard]] LatencyHistogram snapshot() const {
    LatencyHistogram merged;
    for (const Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      merged.merge(stripe.histogram);
    }
    return merged;
  }
  void reset() noexcept {
    for (Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      stripe.histogram.reset();
    }
  }

 private:
  static constexpr std::size_t kStripes = 8;
  struct alignas(64) Stripe {  // one cache line each, no false sharing
    mutable std::mutex mutex;
    LatencyHistogram histogram;
  };

  [[nodiscard]] static std::size_t stripe_index() noexcept {
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           kStripes;
  }

  std::array<Stripe, kStripes> stripes_;
};

/// A name-sorted point-in-time copy of a registry's metrics (owned and
/// exposed merged) — the input to the Prometheus exporter and anything
/// else that needs to iterate without holding registry locks.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, LatencyHistogram>> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Creates or looks up a registry-owned metric. References stay valid
  /// for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Publishes a component-owned counter under `name`. The component must
  /// outlive any read of the registry (in the Testbed both live and die
  /// together).
  void expose_counter(std::string_view name, const Counter* counter);

  /// Publishes a component-owned gauge under `name` — the Gauge analog of
  /// expose_counter, used for occupancy/backlog gauges that live in the
  /// driver's queue pairs and the controller. Re-exposing a name replaces
  /// the pointer (queue pairs are rebuilt by init_io_queues()).
  void expose_gauge(std::string_view name, const Gauge* gauge);

  /// Value of a named counter (owned or exposed); 0 if unknown.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Value of a named gauge (owned or exposed); 0 if unknown.
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const;

  /// Name-sorted copy of every metric (owned and exposed merged).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Deterministic JSON object, keys sorted: counters and gauges as
  /// numbers, histograms as {count, mean_ns, p50_ns, p99_ns, max_ns}.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, const Counter*, std::less<>> exposed_counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, const Gauge*, std::less<>> exposed_gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The `bx::obs::to_json` export entry point for metrics.
[[nodiscard]] std::string to_json(const MetricsRegistry& registry);

}  // namespace bx::obs
