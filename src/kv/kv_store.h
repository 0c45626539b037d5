// The storage-server key-value store: the paper's "shim layer" translates
// OrbitCache messages into these API calls. Versions are assigned here —
// every successful write bumps the key's version — which is what the
// coherence test suite uses to detect stale reads end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "kv/hash_table.h"
#include "kv/value.h"

namespace orbit::kv {

class KvStore {
 public:
  struct Stats {
    uint64_t gets = 0;
    uint64_t hits = 0;
    uint64_t puts = 0;
  };

  // Reads a value; nullopt when absent.
  std::optional<Value> Get(std::string_view key);

  // Writes `size` bytes for `key`; returns the assigned version (monotonic
  // per key, starting at 1).
  uint64_t Put(std::string_view key, uint32_t size);

  // Write-back flush support: applies an externally versioned value but
  // never regresses an existing newer version. Returns the stored version.
  uint64_t PutVersioned(std::string_view key, uint32_t size, uint64_t version);

  size_t size() const { return table_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  HashTable table_;
  Stats stats_;
};

}  // namespace orbit::kv
