// Chained hash table in the spirit of TommyDS (the library the paper's
// storage servers use): power-of-two bucket array, intrusive-style chains,
// amortized O(1) everything, growth by doubling with full rehash at the
// resize point.
//
// Written from scratch rather than wrapping std::unordered_map so the
// substrate is self-contained and its behaviour (probe counts, resize
// policy) is testable; the property suite cross-checks it against the
// standard map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "kv/value.h"

namespace orbit::kv {

class HashTable {
 public:
  explicit HashTable(size_t initial_buckets = 64);
  ~HashTable();

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  // Inserts or overwrites. Returns true when the key was newly inserted.
  bool Put(std::string_view key, Value value);
  // Returns nullptr when absent. The pointer is invalidated by mutation.
  const Value* Get(std::string_view key) const;
  Value* GetMutable(std::string_view key);

  size_t size() const { return size_; }
  size_t bucket_count() const { return buckets_.size(); }
  double load_factor() const {
    return static_cast<double>(size_) / static_cast<double>(buckets_.size());
  }

  // Visits every entry; `fn(key, value)`.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Node* head : buckets_)
      for (const Node* n = head; n != nullptr; n = n->next) fn(n->key, n->value);
  }

  struct ProbeStats {
    uint64_t lookups = 0;
    uint64_t probes = 0;  // chain nodes visited across all lookups
  };
  const ProbeStats& probe_stats() const { return probe_stats_; }

 private:
  struct Node {
    std::string key;
    Value value;
    uint64_t hash = 0;
    Node* next = nullptr;
  };

  void MaybeGrow();
  void Rehash(size_t new_buckets);
  Node** BucketFor(uint64_t hash) {
    return &buckets_[hash & (buckets_.size() - 1)];
  }
  void FreeAll();

  static constexpr double kMaxLoadFactor = 0.9;

  std::vector<Node*> buckets_;
  size_t size_ = 0;
  mutable ProbeStats probe_stats_;
};

}  // namespace orbit::kv
