// Lazy key-value item values.
//
// The paper's workloads use up to 10M keys with values of hundreds of bytes
// to ~1.4KB. Materializing every value would cost gigabytes, so within the
// simulator a Value is a small descriptor — (size, version) — whose bytes
// are synthesized deterministically on demand. NetCache's value registers
// and the tests materialize real bytes; the simulation hot path only
// moves descriptors, which also mirrors how the Tofino PRE clones packets
// (copy the descriptor, share the data).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace orbit::kv {

class Value {
 public:
  Value() = default;

  // A value whose bytes are derived from (key, version) when materialized.
  static Value Synthetic(uint32_t size, uint64_t version);
  // A value backed by explicit bytes (e.g. parsed off the wire).
  static Value FromBytes(std::string bytes);

  uint32_t size() const { return size_; }
  // Monotonic per-key write version assigned by the storage server; used by
  // the coherence tests to detect stale reads. Byte-backed values recover
  // the version from the first 8 content bytes when present.
  uint64_t version() const { return version_; }
  bool is_synthetic() const { return bytes_ == nullptr; }

  // Produces the full value content. Synthetic values embed the version,
  // big-endian, in the first 8 bytes (when size allows) followed by bytes
  // pseudo-randomly derived from the key, so a round trip through
  // FromBytes preserves the version and is content-checkable.
  std::string Materialize(std::string_view key) const;

  // True when two values would materialize identically for the same key.
  bool ContentEquals(const Value& other, std::string_view key) const;

  friend bool operator==(const Value&, const Value&) = default;

 private:
  uint32_t size_ = 0;
  uint64_t version_ = 0;
  std::shared_ptr<const std::string> bytes_;
};

}  // namespace orbit::kv
