#include "kv/hash_table.h"

#include <bit>

#include "common/check.h"

namespace orbit::kv {

HashTable::HashTable(size_t initial_buckets) {
  ORBIT_CHECK(initial_buckets > 0);
  buckets_.assign(std::bit_ceil(initial_buckets), nullptr);
}

HashTable::~HashTable() { FreeAll(); }

void HashTable::FreeAll() {
  for (Node*& head : buckets_) {
    Node* n = head;
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
    head = nullptr;
  }
  size_ = 0;
}

bool HashTable::Put(std::string_view key, Value value) {
  MaybeGrow();
  const uint64_t h = Hash64(key);
  Node** bucket = BucketFor(h);
  for (Node* n = *bucket; n != nullptr; n = n->next) {
    if (n->hash == h && n->key == key) {
      n->value = std::move(value);
      return false;
    }
  }
  Node* node = new Node{std::string(key), std::move(value), h, *bucket};
  *bucket = node;
  ++size_;
  return true;
}

const Value* HashTable::Get(std::string_view key) const {
  return const_cast<HashTable*>(this)->GetMutable(key);
}

Value* HashTable::GetMutable(std::string_view key) {
  const uint64_t h = Hash64(key);
  ++probe_stats_.lookups;
  for (Node* n = *BucketFor(h); n != nullptr; n = n->next) {
    ++probe_stats_.probes;
    if (n->hash == h && n->key == key) return &n->value;
  }
  return nullptr;
}

void HashTable::MaybeGrow() {
  if (static_cast<double>(size_ + 1) >
      kMaxLoadFactor * static_cast<double>(buckets_.size())) {
    Rehash(buckets_.size() * 2);
  }
}

void HashTable::Rehash(size_t new_buckets) {
  std::vector<Node*> old = std::move(buckets_);
  buckets_.assign(new_buckets, nullptr);
  for (Node* head : old) {
    Node* n = head;
    while (n != nullptr) {
      Node* next = n->next;
      Node** bucket = BucketFor(n->hash);
      n->next = *bucket;
      *bucket = n;
      n = next;
    }
  }
}

}  // namespace orbit::kv
