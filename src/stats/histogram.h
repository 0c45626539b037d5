// Log-linear latency histogram (HdrHistogram-style).
//
// Values bucket into 64 linear sub-buckets per power-of-two group, giving
// ≤1.6% relative quantile error over the full nanosecond→second range with
// a few KB of memory, so recording is cheap enough for millions of samples.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace orbit::stats {

class Histogram {
 public:
  // Inline and branch-light: the INT layer records into these for every
  // packet on the link hot path, unsampled.
  void Record(int64_t value) {
    ++buckets_[static_cast<size_t>(BucketFor(value))];
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = value < min_ ? value : min_;
      max_ = value > max_ ? value : max_;
    }
    ++count_;
    sum_ += value;
  }
  // Bare-minimum record for per-packet always-on use (the INT layer):
  // one bucket increment, nothing else. count/min/max/mean must be
  // reconstructed with FinalizeFromBuckets before reading — they come
  // back at bucket resolution (≤1.6%) instead of exact, the HdrHistogram
  // trade for a hot path this tight.
  void RecordFast(int64_t value) {
    ++buckets_[static_cast<size_t>(BucketFor(value))];
  }

  // Rebuilds count_/sum_/min_/max_ from the buckets (mid-point values).
  // Call once after a RecordFast-only population, before any reader.
  void FinalizeFromBuckets();

  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  int64_t min() const;
  int64_t max() const;
  double mean() const { return count_ == 0 ? 0 : static_cast<double>(sum_) / count_; }
  // q in [0, 1]; returns the representative value of the quantile bucket.
  int64_t Percentile(double q) const;
  int64_t Median() const { return Percentile(0.50); }
  int64_t P99() const { return Percentile(0.99); }

 private:
  static constexpr int kSubBits = 6;          // 64 sub-buckets per group
  static constexpr int kSubCount = 1 << kSubBits;
  // Values saturate at 2^40 (18 simulated minutes in ns, 1 TB in bytes):
  // nothing the simulator measures gets near it, and the smaller bucket
  // array (~9KB vs ~30KB) keeps a hot histogram pair L1-resident on the
  // per-packet link path. max() stays exact either way.
  static constexpr int kMaxBits = 40;
  static constexpr int kGroups = kMaxBits - kSubBits;
  // Folded layout: row 0 is kSubCount wide, every later group only uses
  // the upper half of its sub-range.
  static constexpr int kBuckets = kSubCount + kGroups * (kSubCount / 2);

  // Always lands in [0, kBuckets): negative values clamp to 0, values at
  // or above 2^kMaxBits clamp to the top bucket, so no range check on the
  // hot path.
  static int BucketFor(int64_t v) {
    uint64_t u = static_cast<uint64_t>(v < 0 ? 0 : v);
    if (u >> kMaxBits) u = (uint64_t{1} << kMaxBits) - 1;
    if (u < kSubCount) return static_cast<int>(u);
    const int group = std::bit_width(u) - kSubBits;  // >= 1
    const int sub = static_cast<int>(u >> group) - kSubCount / 2;
    // Groups >= 1 use only the upper half of their sub-range (values with
    // the top bit of the sub-index set), so fold into 32-wide rows after
    // row 0.
    return kSubCount + (group - 1) * (kSubCount / 2) + sub;
  }
  static int64_t BucketMid(int bucket);

  // Inline, not heap-allocated: Record reaches a bucket with one indexed
  // access instead of chasing the vector's data pointer first.
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace orbit::stats
