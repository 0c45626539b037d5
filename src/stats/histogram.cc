#include "stats/histogram.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace orbit::stats {

int64_t Histogram::BucketMid(int bucket) {
  if (bucket < kSubCount) return bucket;
  const int rel = bucket - kSubCount;
  const int group = rel / (kSubCount / 2) + 1;
  const int sub = rel % (kSubCount / 2) + kSubCount / 2;
  const int64_t lo = static_cast<int64_t>(sub) << group;
  const int64_t width = int64_t{1} << group;
  return lo + width / 2;
}

void Histogram::FinalizeFromBuckets() {
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t n = buckets_[i];
    if (n == 0) continue;
    const int64_t mid = BucketMid(static_cast<int>(i));
    if (count_ == 0) min_ = mid;
    max_ = mid;
    count_ += n;
    sum_ += static_cast<int64_t>(n) * mid;
  }
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

int64_t Histogram::min() const { return min_; }
int64_t Histogram::max() const { return max_; }

int64_t Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * static_cast<double>(count_) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return std::clamp(BucketMid(static_cast<int>(i)), min_, max_);
  }
  return max_;
}

}  // namespace orbit::stats
