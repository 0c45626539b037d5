#include "kv/kv_store.h"

namespace orbit::kv {

std::optional<Value> KvStore::Get(std::string_view key) {
  ++stats_.gets;
  const Value* v = table_.Get(key);
  if (v == nullptr) return std::nullopt;
  ++stats_.hits;
  return *v;
}

uint64_t KvStore::Put(std::string_view key, uint32_t size) {
  ++stats_.puts;
  Value* existing = table_.GetMutable(key);
  const uint64_t version = existing != nullptr ? existing->version() + 1 : 1;
  Value v = Value::Synthetic(size, version);
  if (existing != nullptr) {
    *existing = std::move(v);
  } else {
    table_.Put(key, std::move(v));
  }
  return version;
}

uint64_t KvStore::PutVersioned(std::string_view key, uint32_t size,
                               uint64_t version) {
  ++stats_.puts;
  Value* existing = table_.GetMutable(key);
  if (existing != nullptr && existing->version() >= version)
    return existing->version();
  Value v = Value::Synthetic(size, version);
  if (existing != nullptr) {
    *existing = std::move(v);
  } else {
    table_.Put(key, std::move(v));
  }
  return version;
}

}  // namespace orbit::kv
