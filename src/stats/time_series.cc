#include "stats/time_series.h"

#include "common/check.h"

namespace orbit::stats {

TimeSeries::TimeSeries(SimTime bin_width) : bin_width_(bin_width) {
  ORBIT_CHECK(bin_width > 0);
}

void TimeSeries::Add(SimTime t, double amount) {
  ORBIT_CHECK(t >= 0);
  const size_t bin = static_cast<size_t>(t / bin_width_);
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0.0);
  bins_[bin] += amount;
}

}  // namespace orbit::stats
