#include "kv/kv_store.h"

#include <gtest/gtest.h>

namespace orbit::kv {
namespace {

TEST(KvStore, GetMissesUntilPut) {
  KvStore store;
  EXPECT_FALSE(store.Get("k").has_value());
  store.Put("k", 64);
  ASSERT_TRUE(store.Get("k").has_value());
  EXPECT_EQ(store.Get("k")->size(), 64u);
}

TEST(KvStore, VersionsAreMonotonicPerKey) {
  KvStore store;
  EXPECT_EQ(store.Put("k", 10), 1u);
  EXPECT_EQ(store.Put("k", 20), 2u);
  EXPECT_EQ(store.Put("k", 30), 3u);
  EXPECT_EQ(store.Get("k")->version(), 3u);
  EXPECT_EQ(store.Put("other", 10), 1u) << "versions are per key";
}

TEST(KvStore, PutVersionedNeverRegresses) {
  KvStore store;
  store.Put("k", 10);
  store.Put("k", 10);  // version 2
  EXPECT_EQ(store.PutVersioned("k", 99, 1), 2u) << "older flush ignored";
  EXPECT_EQ(store.Get("k")->size(), 10u);
  EXPECT_EQ(store.PutVersioned("k", 99, 7), 7u);
  EXPECT_EQ(store.Get("k")->version(), 7u);
  EXPECT_EQ(store.Get("k")->size(), 99u);
}

TEST(KvStore, PutVersionedCreatesMissingKey) {
  KvStore store;
  EXPECT_EQ(store.PutVersioned("k", 32, 5), 5u);
  EXPECT_EQ(store.Get("k")->version(), 5u);
}

TEST(KvStore, StatsCountOperations) {
  KvStore store;
  store.Get("a");
  store.Put("a", 1);
  store.Get("a");
  const auto& s = store.stats();
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.puts, 1u);
}

}  // namespace
}  // namespace orbit::kv
