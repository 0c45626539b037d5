#include "workload/value_dist.h"

#include "common/check.h"
#include "common/hash.h"

namespace orbit::wl {

ValueDist ValueDist::Fixed(uint32_t size) {
  ValueDist d;
  d.kind_ = Kind::kFixed;
  d.fixed_size_ = size;
  return d;
}

ValueDist ValueDist::Bimodal(uint32_t small_size, uint32_t large_size,
                             double p_small, uint64_t seed) {
  ORBIT_CHECK(p_small >= 0 && p_small <= 1);
  ValueDist d;
  d.kind_ = Kind::kBimodal;
  d.small_size_ = small_size;
  d.large_size_ = large_size;
  d.p_small_ = p_small;
  d.seed_ = seed;
  return d;
}

uint32_t ValueDist::SizeFor(std::string_view key) const {
  if (kind_ == Kind::kFixed) return fixed_size_;
  // Map the key hash to [0,1); deterministic across all components.
  const uint64_t h = Hash64(key, seed_ ^ 0x76616c73697a65ull);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < p_small_ ? small_size_ : large_size_;
}

uint32_t ValueDist::max_size() const {
  if (kind_ == Kind::kFixed) return fixed_size_;
  return small_size_ > large_size_ ? small_size_ : large_size_;
}

}  // namespace orbit::wl
