// Hopscotch hashing re-implementation, concurrent and phase-concurrent
// (-PC) variants: hop-range invariant, displacement, timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "phch/core/hopscotch_table.h"
#include "table_test_util.h"

namespace phch {
namespace {

template <typename T>
class HopscotchVariants : public ::testing::Test {};

using Variants = ::testing::Types<hopscotch_table<int_entry<>, true>,
                                  hopscotch_table<int_entry<>, false>>;
TYPED_TEST_SUITE(HopscotchVariants, Variants);

TYPED_TEST(HopscotchVariants, InsertFindErase) {
  TypeParam t(256);
  t.insert(4);
  t.insert(44);
  EXPECT_TRUE(t.contains(4));
  EXPECT_TRUE(t.contains(44));
  EXPECT_FALSE(t.contains(5));
  t.erase(4);
  EXPECT_FALSE(t.contains(4));
  EXPECT_EQ(t.count(), 1u);
}

TYPED_TEST(HopscotchVariants, SetSemanticsUnderConcurrency) {
  TypeParam t(1 << 13);
  const auto keys = test::dup_keys(9000, 5000, 3);
  test::parallel_insert(t, keys);
  const std::set<std::uint64_t> expected(keys.begin(), keys.end());
  EXPECT_EQ(t.count(), expected.size());
  for (const auto k : expected) ASSERT_TRUE(t.contains(k));
  auto elems = t.elements();
  std::sort(elems.begin(), elems.end());
  EXPECT_TRUE(std::equal(elems.begin(), elems.end(), expected.begin(), expected.end()));
}

TYPED_TEST(HopscotchVariants, EveryKeyReachableThroughHopBitmap) {
  // find() only consults the home bucket's hop bitmap (fast path), so this
  // verifies every element is registered within kHopRange of its home — the
  // property that makes finds touch at most a couple of cache lines.
  TypeParam t(1 << 12);
  const auto keys = test::unique_keys((1 << 12) / 2, 7);  // 50% load
  test::parallel_insert(t, keys);
  for (const auto k : keys) ASSERT_EQ(t.find(k), k);
}

TYPED_TEST(HopscotchVariants, DisplacementUnderHighLoad) {
  TypeParam t(1 << 10);
  const auto keys = test::unique_keys((1 << 10) * 80 / 100, 11);  // 80% load
  test::parallel_insert(t, keys);
  EXPECT_EQ(t.count(), keys.size());
  for (const auto k : keys) ASSERT_TRUE(t.contains(k)) << k;
}

TYPED_TEST(HopscotchVariants, DeletesFreeSlotsForReuse) {
  TypeParam t(1 << 10);
  for (int round = 0; round < 8; ++round) {
    const auto keys = test::unique_keys(600, 100 + round);
    test::parallel_insert(t, keys);
    ASSERT_EQ(t.count(), keys.size());
    test::parallel_erase(t, keys);
    ASSERT_EQ(t.count(), 0u);
  }
}

TYPED_TEST(HopscotchVariants, CombinesDuplicatePairs) {
  hopscotch_table<pair_entry<combine_add>, true> t(1 << 10);
  parallel_for(0, 10000, [&](std::size_t i) { t.insert(kv64{1 + (i % 4), 1}); });
  std::uint64_t total = 0;
  for (std::uint64_t k = 1; k <= 4; ++k) total += t.find(k).v;
  EXPECT_EQ(total, 10000u);
}

TEST(Hopscotch, ConcurrentVariantSupportsMixedFindInsert) {
  // The fully-concurrent (timestamped) variant tolerates finds racing with
  // inserts; sanity-check that a found key is never falsely reported absent
  // after its insert completed. The loop mixes classes on purpose, so the
  // phase scopes' reports are counted instead of aborting; whether threads
  // overlap depends on timing, so the count is not asserted.
  hopscotch_table<int_entry<>, true> t(1 << 12);
  const auto keys = test::unique_keys(1000, 17);
  test::parallel_insert(t, keys);
  std::atomic<std::size_t> found{0};
  static std::atomic<int> reports{0};
  const phase_violation_handler prev = set_phase_violation_handler(
      [](const phase_violation&) { reports.fetch_add(1, std::memory_order_relaxed); });
  parallel_for(0, keys.size(), [&](std::size_t i) {
    if (t.contains(keys[i])) found.fetch_add(1);
    t.insert(keys[i] + (1ULL << 40));  // disjoint key range
  });
  set_phase_violation_handler(prev);
  EXPECT_EQ(found.load(), keys.size());
  EXPECT_EQ(t.count(), 2 * keys.size());
}

TEST(Hopscotch, ThrowsWhenDisplacementImpossible) {
  hopscotch_table<int_entry<>, true> t(4);  // rounds up to 4 * kHopRange
  EXPECT_THROW(
      {
        for (std::uint64_t k = 1; k < 4 * hopscotch_table<int_entry<>>::kHopRange + 8; ++k)
          t.insert(k);
      },
      table_full_error);
}

}  // namespace
}  // namespace phch
