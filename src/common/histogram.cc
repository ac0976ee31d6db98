#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/status.h"

namespace bx {
namespace {

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) noexcept {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) noexcept {
  return a != 0 && b > UINT64_MAX / a ? UINT64_MAX : a * b;
}

}  // namespace

LatencyHistogram::LatencyHistogram() = default;

std::size_t LatencyHistogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const int range = msb - kSubBucketBits + 1;
  const auto sub = static_cast<std::size_t>(
      (value >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  // range <= 63 - kSubBucketBits + 1 = kRanges + 1, so the largest index
  // (UINT64_MAX's) is (kRanges + 2) * kSubBuckets - 1 — the final bucket
  // of kBuckets. The BX_ASSERT in record_n backstops this.
  return static_cast<std::size_t>(range) * kSubBuckets + sub + kSubBuckets;
}

std::uint64_t LatencyHistogram::bucket_midpoint(std::size_t index) noexcept {
  if (index < kSubBuckets) return index;
  index -= kSubBuckets;
  const int range = static_cast<int>(index / kSubBuckets);
  const std::uint64_t sub = index % kSubBuckets;
  const std::uint64_t base = (std::uint64_t{kSubBuckets} | sub)
                             << (range - 1);
  const std::uint64_t width = std::uint64_t{1} << (range - 1);
  return base + width / 2;
}

void LatencyHistogram::record(std::uint64_t value) noexcept {
  record_n(value, 1);
}

void LatencyHistogram::record_n(std::uint64_t value,
                                std::uint64_t count) noexcept {
  if (count == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  const std::size_t index = bucket_index(value);
  BX_ASSERT(index < buckets_.size());
  buckets_[index] = saturating_add(buckets_[index], count);
  count_ = saturating_add(count_, count);
  sum_ = saturating_add(sum_, saturating_mul(value, count));
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.buckets_.empty()) return;  // never recorded into: nothing to add
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] = saturating_add(buckets_[i], other.buckets_[i]);
  }
  count_ = saturating_add(count_, other.count_);
  sum_ = saturating_add(sum_, other.sum_);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

std::uint64_t LatencyHistogram::min() const noexcept {
  return count_ == 0 ? 0 : min_;
}

double LatencyHistogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / double(count_);
}

std::uint64_t LatencyHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // The extremes are tracked exactly.
  if (p == 0.0) return min();
  if (p == 100.0) return max_;
  const auto target = static_cast<std::uint64_t>(p / 100.0 * double(count_));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target || (seen == target && seen == count_)) {
      // Clamp the bucket midpoint estimate to the observed extremes so
      // p0/p100 are exact.
      return std::clamp(bucket_midpoint(i), min(), max_);
    }
  }
  return max_;
}

std::string LatencyHistogram::summary(std::string_view unit) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f%.*s p50=%llu p95=%llu p99=%llu max=%llu%.*s",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<int>(unit.size()), unit.data(),
                static_cast<unsigned long long>(percentile(50)),
                static_cast<unsigned long long>(percentile(95)),
                static_cast<unsigned long long>(percentile(99)),
                static_cast<unsigned long long>(max()),
                static_cast<int>(unit.size()), unit.data());
  return buf;
}

ExactCounter::ExactCounter(std::size_t domain) : counts_(domain, 0) {}

void ExactCounter::record(std::uint64_t value) noexcept {
  ++total_;
  if (value < counts_.size()) {
    ++counts_[static_cast<std::size_t>(value)];
  } else {
    ++overflow_;
  }
}

std::uint64_t ExactCounter::count_of(std::uint64_t value) const noexcept {
  return value < counts_.size() ? counts_[static_cast<std::size_t>(value)] : 0;
}

double ExactCounter::cdf(std::uint64_t value) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t below = 0;
  // value + 1 would wrap at UINT64_MAX; compare first instead.
  const std::uint64_t limit =
      value >= counts_.size() ? counts_.size() : value + 1;
  for (std::uint64_t i = 0; i < limit; ++i) below += counts_[i];
  return static_cast<double>(below) / double(total_);
}

}  // namespace bx
