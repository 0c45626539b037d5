// Exact-match match-action tables with hardware width limits.
//
// The match key occupies at most the ASIC's `kMaxMatchKeyBytes` (16B on
// Tofino-1-class hardware) — the reason NetCache cannot index items by
// keys longer than 16 bytes, and the reason OrbitCache matches on a 16-byte
// key *hash* instead (paper §3.6). Inserting an over-wide key throws at
// the Insert site, mirroring a compile-time P4 failure.
//
// Entries are mutated from the control plane (the controller inserts and
// evicts cache entries); the data plane only looks up.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "rmt/resources.h"

namespace orbit::rmt {

inline uint32_t MatchKeyBytes(const std::string& key) {
  return static_cast<uint32_t>(key.size());
}
inline uint32_t MatchKeyBytes(const Hash128&) { return 16; }
inline uint32_t MatchKeyBytes(uint32_t) { return 4; }  // e.g. IPv4 addresses

class MatchTableBase {
 public:
  MatchTableBase(Resources* res, std::string name, int stage, size_t capacity,
                 uint32_t key_width_bytes, uint32_t entry_value_bytes);
  virtual ~MatchTableBase() = default;

  const std::string& table_name() const { return name_; }
  size_t capacity() const { return capacity_; }
  uint32_t key_width_bytes() const { return key_width_; }

  // Telemetry: data-plane lookup traffic (control-plane Insert/Erase do
  // not count). hits() <= lookups() always.
  uint64_t lookups() const { return lookups_; }
  uint64_t hits() const { return hits_; }

 protected:
  void CountLookup(bool hit) const {
    ++lookups_;
    if (hit) ++hits_;
  }

 private:
  std::string name_;
  size_t capacity_;
  uint32_t key_width_;
  mutable uint64_t lookups_ = 0;
  mutable uint64_t hits_ = 0;
};

template <typename K, typename V>
class ExactMatchTable : public MatchTableBase {
 public:
  ExactMatchTable(Resources* res, std::string name, int stage,
                  size_t capacity, uint32_t key_width_bytes,
                  uint32_t entry_value_bytes = 4)
      : MatchTableBase(res, std::move(name), stage, capacity, key_width_bytes,
                       entry_value_bytes) {}

  // Control-plane insert; returns false when the table is at capacity.
  // Throws when the key exceeds the declared match-key width.
  bool Insert(const K& key, V value) {
    ORBIT_CHECK_MSG(MatchKeyBytes(key) <= key_width_bytes(),
                    table_name() << ": key of " << MatchKeyBytes(key)
                                 << "B exceeds match width "
                                 << key_width_bytes() << "B");
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second = std::move(value);
      return true;
    }
    if (map_.size() >= capacity()) return false;
    map_.emplace(key, std::move(value));
    return true;
  }

  // Data-plane lookup.
  V* Lookup(const K& key) {
    auto it = map_.find(key);
    CountLookup(it != map_.end());
    return it == map_.end() ? nullptr : &it->second;
  }
  const V* Lookup(const K& key) const {
    auto it = map_.find(key);
    CountLookup(it != map_.end());
    return it == map_.end() ? nullptr : &it->second;
  }

  bool Erase(const K& key) { return map_.erase(key) > 0; }
  void Clear() { map_.clear(); }
  size_t size() const { return map_.size(); }

  const std::unordered_map<K, V>& entries() const { return map_; }

 private:
  std::unordered_map<K, V> map_;
};

}  // namespace orbit::rmt
