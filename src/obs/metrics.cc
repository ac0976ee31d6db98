#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

namespace bx::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::expose_counter(std::string_view name,
                                     const Counter* counter) {
  std::lock_guard<std::mutex> lock(mutex_);
  exposed_counters_[std::string(name)] = counter;
}

void MetricsRegistry::expose_gauge(std::string_view name, const Gauge* gauge) {
  std::lock_guard<std::mutex> lock(mutex_);
  exposed_gauges_[std::string(name)] = gauge;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = counters_.find(name); it != counters_.end()) {
    return it->second->value();
  }
  if (const auto it = exposed_counters_.find(name);
      it != exposed_counters_.end()) {
    return it->second->value();
  }
  return 0;
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = gauges_.find(name); it != gauges_.end()) {
    return it->second->value();
  }
  if (const auto it = exposed_gauges_.find(name);
      it != exposed_gauges_.end()) {
    return it->second->value();
  }
  return 0;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  // Histograms are read after the registry lock drops: a histogram's
  // source takes its owner's locks, and an owner may look a metric up
  // while holding one (the driver under pending_mutex). Registry-owned
  // histograms are never removed, so the pointers stay valid.
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  std::unique_lock<std::mutex> lock(mutex_);
  // std::map iteration is name-sorted, which keeps consumers deterministic;
  // merge owned and exposed metrics into one sorted stream per family.
  snap.counters.reserve(counters_.size() + exposed_counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, c] : exposed_counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  std::sort(snap.counters.begin(), snap.counters.end());

  snap.gauges.reserve(gauges_.size() + exposed_gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, g] : exposed_gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  std::sort(snap.gauges.begin(), snap.gauges.end());

  histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    histograms.emplace_back(name, h.get());
  }
  lock.unlock();
  snap.histograms.reserve(histograms.size());
  for (const auto& [name, h] : histograms) {
    snap.histograms.emplace_back(name, h->snapshot());
  }
  return snap;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();

  std::string out = "{";
  bool first = true;
  char entry[256];
  const auto append = [&](const char* text) {
    if (!first) out += ", ";
    out += text;
    first = false;
  };
  for (const auto& [name, value] : snap.counters) {
    std::snprintf(entry, sizeof(entry), "\"%s\": %llu", name.c_str(),
                  static_cast<unsigned long long>(value));
    append(entry);
  }
  for (const auto& [name, value] : snap.gauges) {
    std::snprintf(entry, sizeof(entry), "\"%s\": %lld", name.c_str(),
                  static_cast<long long>(value));
    append(entry);
  }
  for (const auto& [name, histogram] : snap.histograms) {
    std::snprintf(entry, sizeof(entry),
                  "\"%s\": {\"count\": %llu, \"mean_ns\": %.1f, "
                  "\"p50_ns\": %llu, \"p99_ns\": %llu, \"max_ns\": %llu}",
                  name.c_str(),
                  static_cast<unsigned long long>(histogram.count()),
                  histogram.mean(),
                  static_cast<unsigned long long>(histogram.percentile(50)),
                  static_cast<unsigned long long>(histogram.percentile(99)),
                  static_cast<unsigned long long>(histogram.max()));
    append(entry);
  }
  out += "}";
  return out;
}

std::string to_json(const MetricsRegistry& registry) {
  return registry.to_json();
}

}  // namespace bx::obs
