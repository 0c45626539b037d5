// Fixed-bin time series for the dynamic-workload timeline (Fig. 18).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace orbit::stats {

class TimeSeries {
 public:
  // One bin per `bin_width` of simulated time starting at t = 0.
  explicit TimeSeries(SimTime bin_width);

  void Add(SimTime t, double amount = 1.0);

  size_t num_bins() const { return bins_.size(); }
  double bin(size_t i) const { return bins_.at(i); }
  SimTime bin_width() const { return bin_width_; }

  const std::vector<double>& bins() const { return bins_; }

 private:
  SimTime bin_width_;
  std::vector<double> bins_;
};

}  // namespace orbit::stats
