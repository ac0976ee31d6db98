// Latency/size histograms with percentile queries.
//
// LatencyHistogram uses log-linear buckets (HdrHistogram-style: power-of-two
// ranges, 16 linear sub-buckets each) so percentiles stay within ~6% of the
// true value across nine decades without storing raw samples.
//
// Edge-case contract (tested by tests/common_test.cc):
//   * Every uint64 value maps to a real bucket — the top range group holds
//     values with the MSB at bit 63, so UINT64_MAX lands in the last
//     bucket, never out of range.
//   * The internal value sum saturates at UINT64_MAX instead of wrapping;
//     once saturated, mean() is a lower bound (percentiles, count, min and
//     max are unaffected). Reaching saturation needs ~2^64 total recorded
//     nanoseconds, far beyond any simulated run.
//   * percentile() of an empty histogram is 0, and p is clamped to
//     [0, 100]; p0/p100 return the exact observed min/max.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bx {

class LatencyHistogram {
 public:
  /// Empty, with no buckets: they are allocated at the first record or
  /// merge, so a histogram nothing records into costs a few words.
  LatencyHistogram();

  /// Records `value` (`count` times). The value sum saturates at
  /// UINT64_MAX rather than wrapping — see the class comment.
  void record(std::uint64_t value) noexcept;
  void record_n(std::uint64_t value, std::uint64_t count) noexcept;
  void merge(const LatencyHistogram& other) noexcept;
  void reset() noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept;

  /// Value at percentile p in [0, 100]. Returns 0 for an empty histogram.
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept;

  /// "n=... mean=... p50=... p99=... max=..." summary line.
  [[nodiscard]] std::string summary(std::string_view unit = "ns") const;

 private:
  static constexpr int kSubBucketBits = 4;  // 16 linear sub-buckets per decade
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kRanges = 64 - kSubBucketBits;
  // +2 range groups: the linear sub-16 region plus the top range that
  // holds values with the MSB at bit 63.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kRanges + 2) * kSubBuckets;

  static std::size_t bucket_index(std::uint64_t value) noexcept;
  static std::uint64_t bucket_midpoint(std::size_t index) noexcept;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

/// Exact counter for small discrete domains (e.g. value-size buckets for the
/// Fig 1(a) distribution). Stores a dense vector up to `domain` and counts
/// overflow separately.
class ExactCounter {
 public:
  explicit ExactCounter(std::size_t domain);

  void record(std::uint64_t value) noexcept;
  [[nodiscard]] std::uint64_t count_of(std::uint64_t value) const noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

  /// Fraction of recorded values that are <= `value`. Counts in-domain
  /// values only: overflow recordings (>= domain) never contribute, so
  /// cdf(UINT64_MAX) is total-overflow over total, not 1.0.
  [[nodiscard]] double cdf(std::uint64_t value) const noexcept;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace bx
