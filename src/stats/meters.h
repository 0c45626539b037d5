// Per-server load accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace orbit::stats {

// Per-server request counts; balancing efficiency is the paper's Fig. 13(b)
// metric: min server throughput / max server throughput.
class LoadTracker {
 public:
  explicit LoadTracker(size_t num_servers) : counts_(num_servers, 0) {}

  void Add(size_t server, uint64_t n = 1) { counts_.at(server) += n; }
  void Reset() { counts_.assign(counts_.size(), 0); }

  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t total() const;
  uint64_t max_load() const;
  uint64_t min_load() const;
  double BalancingEfficiency() const;

 private:
  std::vector<uint64_t> counts_;
};

}  // namespace orbit::stats
