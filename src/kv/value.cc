#include "kv/value.h"

#include "common/check.h"
#include "common/hash.h"

namespace orbit::kv {

Value Value::Synthetic(uint32_t size, uint64_t version) {
  Value v;
  v.size_ = size;
  v.version_ = version;
  return v;
}

Value Value::FromBytes(std::string bytes) {
  Value v;
  v.size_ = static_cast<uint32_t>(bytes.size());
  // The version prefix is big-endian, like the P4 header fields.
  if (bytes.size() >= 8)
    for (int i = 0; i < 8; ++i)
      v.version_ = v.version_ << 8 | static_cast<uint8_t>(bytes[i]);
  v.bytes_ = std::make_shared<const std::string>(std::move(bytes));
  return v;
}

std::string Value::Materialize(std::string_view key) const {
  if (bytes_) return *bytes_;
  std::string out;
  out.reserve(size_);
  if (size_ >= 8)
    for (int shift = 56; shift >= 0; shift -= 8)
      out.push_back(static_cast<char>(version_ >> shift));
  uint64_t state = Hash64(key) ^ (version_ * 0x9e3779b97f4a7c15ull);
  while (out.size() < size_) {
    state = Mix64(state);
    uint64_t chunk = state;
    for (int i = 0; i < 8 && out.size() < size_; ++i) {
      out.push_back(static_cast<char>(chunk & 0xff));
      chunk >>= 8;
    }
  }
  return out;
}

bool Value::ContentEquals(const Value& other, std::string_view key) const {
  if (size_ != other.size_) return false;
  if (!bytes_ && !other.bytes_)
    return version_ == other.version_;
  return Materialize(key) == other.Materialize(key);
}

}  // namespace orbit::kv
