// Per-key value-size assignment.
//
// Sizes are a deterministic function of the key (hash-seeded), so every
// component — clients predicting reply sizes, servers synthesizing values,
// the testbed deciding NetCache cacheability — agrees without coordination.
// The paper's default is a bimodal mix of 82% 64-byte and 18% 1024-byte
// values, modeled on Twitter Cluster018 (§5.1).
#pragma once

#include <cstdint>
#include <string_view>

namespace orbit::wl {

class ValueDist {
 public:
  // All items share one size (Fig. 17's worst-case sweep).
  static ValueDist Fixed(uint32_t size);
  // Two sizes with probability p_small of the small one.
  static ValueDist Bimodal(uint32_t small_size, uint32_t large_size,
                           double p_small, uint64_t seed = 0);
  // The paper's default workload mix.
  static ValueDist PaperDefault(uint64_t seed = 0) {
    return Bimodal(64, 1024, 0.82, seed);
  }

  uint32_t SizeFor(std::string_view key) const;

  uint32_t max_size() const;

  // The parameters the distribution was built from: fixed_size() for a
  // Fixed one, the rest for a Bimodal one.
  bool bimodal() const { return kind_ == Kind::kBimodal; }
  uint32_t fixed_size() const { return fixed_size_; }
  uint32_t small_size() const { return small_size_; }
  uint32_t large_size() const { return large_size_; }
  double p_small() const { return p_small_; }
  uint64_t seed() const { return seed_; }

 private:
  enum class Kind { kFixed, kBimodal };
  Kind kind_ = Kind::kFixed;
  uint32_t fixed_size_ = 128;
  uint32_t small_size_ = 64;
  uint32_t large_size_ = 1024;
  double p_small_ = 0.82;
  uint64_t seed_ = 0;
};

}  // namespace orbit::wl
