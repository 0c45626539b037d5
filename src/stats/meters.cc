#include "stats/meters.h"

#include <algorithm>

namespace orbit::stats {

uint64_t LoadTracker::total() const {
  uint64_t sum = 0;
  for (uint64_t c : counts_) sum += c;
  return sum;
}

uint64_t LoadTracker::max_load() const {
  return counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
}

uint64_t LoadTracker::min_load() const {
  return counts_.empty() ? 0 : *std::min_element(counts_.begin(), counts_.end());
}

double LoadTracker::BalancingEfficiency() const {
  const uint64_t mx = max_load();
  if (mx == 0) return 1.0;
  return static_cast<double>(min_load()) / static_cast<double>(mx);
}

}  // namespace orbit::stats
