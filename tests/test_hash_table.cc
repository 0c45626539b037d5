#include "kv/hash_table.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.h"

namespace orbit::kv {
namespace {

TEST(HashTable, PutGet) {
  HashTable t;
  EXPECT_TRUE(t.Put("a", Value::Synthetic(10, 1)));
  EXPECT_FALSE(t.Put("a", Value::Synthetic(20, 2)));  // overwrite
  ASSERT_NE(t.Get("a"), nullptr);
  EXPECT_EQ(t.Get("a")->size(), 20u);
  EXPECT_EQ(t.Get("b"), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(HashTable, GrowsPastInitialBuckets) {
  HashTable t(4);
  for (int i = 0; i < 1000; ++i)
    t.Put("key" + std::to_string(i), Value::Synthetic(8, 1));
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_GT(t.bucket_count(), 1000u * 0.9);
  EXPECT_LE(t.load_factor(), 0.9);
  for (int i = 0; i < 1000; ++i)
    ASSERT_NE(t.Get("key" + std::to_string(i)), nullptr) << i;
}

TEST(HashTable, ForEachVisitsEverything) {
  HashTable t;
  for (int i = 0; i < 100; ++i)
    t.Put("k" + std::to_string(i), Value::Synthetic(8, static_cast<uint64_t>(i)));
  int visited = 0;
  uint64_t version_sum = 0;
  t.ForEach([&](const std::string&, const Value& v) {
    ++visited;
    version_sum += v.version();
  });
  EXPECT_EQ(visited, 100);
  EXPECT_EQ(version_sum, 99u * 100 / 2);
}

TEST(HashTable, ProbeStatsStayLowAtBoundedLoad) {
  HashTable t;
  for (int i = 0; i < 100000; ++i)
    t.Put("key" + std::to_string(i), Value::Synthetic(8, 1));
  for (int i = 0; i < 100000; ++i) t.Get("key" + std::to_string(i));
  const auto& ps = t.probe_stats();
  // Average chain probes per lookup should be ~O(load factor).
  EXPECT_LT(static_cast<double>(ps.probes) / ps.lookups, 2.0);
}

// Property: behaves exactly like std::unordered_map under a random
// operation mix.
class HashTableFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashTableFuzz, MatchesReferenceMap) {
  HashTable t(2);
  std::unordered_map<std::string, Value> ref;
  Rng rng(GetParam());
  for (int op = 0; op < 20000; ++op) {
    const std::string key = "k" + std::to_string(rng.UniformU64(500));
    const double action = rng.UniformDouble();
    if (action < 0.5) {
      Value v = Value::Synthetic(static_cast<uint32_t>(rng.UniformU64(64)),
                                 rng.NextU64() % 1000);
      t.Put(key, v);
      ref[key] = v;
    } else {
      const Value* got = t.Get(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        ASSERT_EQ(got, nullptr) << key;
      } else {
        ASSERT_NE(got, nullptr) << key;
        ASSERT_EQ(*got, it->second) << key;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashTableFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 99));

}  // namespace
}  // namespace orbit::kv
