// Lea-style chained table and the contention-reducing (-CR) variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "phch/core/chained_table.h"
#include "table_test_util.h"

namespace phch {
namespace {

template <typename T>
class ChainedVariants : public ::testing::Test {};

using Variants = ::testing::Types<chained_table<int_entry<>, false>,
                                  chained_table<int_entry<>, true>>;
TYPED_TEST_SUITE(ChainedVariants, Variants);

TYPED_TEST(ChainedVariants, InsertFindErase) {
  TypeParam t(64);
  t.insert(1);
  t.insert(65);  // same bucket as 1 only if hashes collide; either way works
  t.insert(999);
  EXPECT_TRUE(t.contains(1));
  EXPECT_TRUE(t.contains(65));
  EXPECT_TRUE(t.contains(999));
  t.erase(65);
  EXPECT_FALSE(t.contains(65));
  EXPECT_EQ(t.count(), 2u);
}

TYPED_TEST(ChainedVariants, SetSemanticsUnderConcurrency) {
  TypeParam t(1 << 13);
  const auto keys = test::dup_keys(10000, 4000, 3);
  test::parallel_insert(t, keys);
  const std::set<std::uint64_t> expected(keys.begin(), keys.end());
  EXPECT_EQ(t.count(), expected.size());
  auto elems = t.elements();
  std::sort(elems.begin(), elems.end());
  EXPECT_TRUE(std::equal(elems.begin(), elems.end(), expected.begin(), expected.end()));
}

TYPED_TEST(ChainedVariants, HighDuplicationContention) {
  // The paper's pathological case for the non-CR table: almost every insert
  // targets the same few keys.
  TypeParam t(1 << 10);
  const auto keys = test::dup_keys(30000, 8, 7);
  test::parallel_insert(t, keys);
  EXPECT_EQ(t.count(), std::set<std::uint64_t>(keys.begin(), keys.end()).size());
}

TYPED_TEST(ChainedVariants, DeleteUnderConcurrency) {
  TypeParam t(1 << 12);
  const auto keys = test::unique_keys(4000, 5);
  test::parallel_insert(t, keys);
  const std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 2500);
  test::parallel_erase(t, dels);
  EXPECT_EQ(t.count(), keys.size() - dels.size());
  for (std::size_t i = 2500; i < keys.size(); ++i) ASSERT_TRUE(t.contains(keys[i]));
  for (const auto d : dels) ASSERT_FALSE(t.contains(d));
}

TYPED_TEST(ChainedVariants, NodeRecyclingSurvivesChurn) {
  // Repeated insert/delete phases exercise the pooled free list.
  TypeParam t(1 << 10);
  for (int round = 0; round < 10; ++round) {
    const auto keys = test::unique_keys(800, 100 + round);
    test::parallel_insert(t, keys);
    ASSERT_EQ(t.count(), keys.size());
    test::parallel_erase(t, keys);
    ASSERT_EQ(t.count(), 0u);
  }
}

TYPED_TEST(ChainedVariants, ConcurrentErasesOnLongChainsMissNoKey) {
  // Few buckets, long chains: erases unlink and free nodes while other
  // erases walk the same chain. A freed node must not lead chainedHash-CR's
  // lock-free erase pre-pass into the free list, or that erase misses a key
  // still in the chain and leaves it behind.
  for (int round = 0; round < 100; ++round) {
    TypeParam t(16);
    const auto keys = test::unique_keys(2000, 200 + round);
    test::parallel_insert(t, keys);
    test::parallel_erase(t, keys);
    ASSERT_EQ(t.count(), 0u) << "round " << round;
  }
}

TYPED_TEST(ChainedVariants, ElementsMatchesPaperScheme) {
  TypeParam t(1 << 8);
  const auto keys = test::unique_keys(300, 9);
  test::parallel_insert(t, keys);
  auto elems = t.elements();
  EXPECT_EQ(elems.size(), keys.size());
  std::sort(elems.begin(), elems.end());
  EXPECT_TRUE(std::equal(elems.begin(), elems.end(), keys.begin(), keys.end()));
}

TEST(ChainedTable, CombineAddAcrossVariants) {
  chained_table<pair_entry<combine_add>, true> t(1 << 8);
  parallel_for(0, 20000, [&](std::size_t i) { t.insert(kv64{1 + (i % 3), 1}); });
  EXPECT_EQ(t.find(1).v + t.find(2).v + t.find(3).v, 20000u);
}

TEST(ChainedTable, ManyMoreKeysThanBuckets) {
  // Chains grow long; count/elements must still be exact.
  chained_table<int_entry<>, true> t(64);
  const auto keys = test::unique_keys(5000, 21);
  test::parallel_insert(t, keys);
  EXPECT_EQ(t.count(), keys.size());
  for (const auto k : keys) ASSERT_TRUE(t.contains(k));
}

}  // namespace
}  // namespace phch
