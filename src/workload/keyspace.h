// Deterministic key-space construction.
//
// Popularity ranks are scattered over key identities through a bijective
// permutation, so the hottest keys land on pseudo-random storage servers —
// materializing neither a 10M-entry rank table nor the keys themselves.
// Key strings have a fixed width (16B by default, the paper's simplified
// key size) and are reproducible across processes.
#pragma once

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/types.h"

namespace orbit::wl {

class KeySpace {
 public:
  KeySpace(uint64_t num_keys, uint32_t key_size, uint64_t seed);

  // The shortest key_size a `num_keys` space accepts: "k" plus the
  // largest id's decimal digits, and never under 8 bytes.
  static uint32_t MinKeySize(uint64_t num_keys);

  uint64_t num_keys() const { return num_keys_; }
  uint32_t key_size() const { return key_size_; }

  // Key identity for a popularity rank (bijective).
  uint64_t IdForRank(uint64_t rank) const { return perm_(rank); }

  // The key string for an identity; always exactly key_size() bytes.
  Key KeyForId(uint64_t id) const;
  Key KeyAtRank(uint64_t rank) const { return KeyForId(IdForRank(rank)); }

  // The 16-byte lookup hash clients place in the HKEY header field.
  Hash128 HashOf(const Key& key) const { return HashKey128(key); }

 private:
  uint64_t num_keys_;
  uint32_t key_size_;
  Permutation perm_;
};

}  // namespace orbit::wl
