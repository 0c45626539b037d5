#include "workload/keyspace.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/check.h"

namespace orbit::wl {

KeySpace::KeySpace(uint64_t num_keys, uint32_t key_size, uint64_t seed)
    : num_keys_(num_keys), key_size_(key_size), perm_(num_keys, seed) {
  ORBIT_CHECK_MSG(key_size >= MinKeySize(num_keys),
                  "key size " << key_size << " too small for " << num_keys
                              << " keys");
}

uint32_t KeySpace::MinKeySize(uint64_t num_keys) {
  const uint64_t max_id = num_keys > 0 ? num_keys - 1 : 0;
  return std::max<uint32_t>(
      8, 1 + static_cast<uint32_t>(std::to_string(max_id).size()));
}

Key KeySpace::KeyForId(uint64_t id) const {
  ORBIT_CHECK(id < num_keys_);
  // "k" + zero-padded decimal identity, padded to the configured width with
  // a deterministic filler — stable, human-readable, unique.
  char digits[24];
  const int n = std::snprintf(digits, sizeof(digits), "%llu",
                              static_cast<unsigned long long>(id));
  ORBIT_CHECK_MSG(static_cast<uint32_t>(n) + 1 <= key_size_,
                  "key size " << key_size_ << " too small for id " << id);
  Key key;
  key.reserve(key_size_);
  key.push_back('k');
  const uint32_t pad = key_size_ - 1 - static_cast<uint32_t>(n);
  key.append(pad, '0');
  key.append(digits, static_cast<size_t>(n));
  return key;
}

}  // namespace orbit::wl
