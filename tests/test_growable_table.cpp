// Resizing extension (§4 "Resizing"): growth triggers, migration
// correctness, determinism of the final layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "phch/core/growable_table.h"
#include "phch/core/table_concepts.h"
#include "phch/parallel/parallel_for.h"
#include "table_test_util.h"

namespace phch {
namespace {

using gtable = growable_table<int_entry<>>;

TEST(GrowableTable, GrowsFromTinyCapacity) {
  gtable t(16);
  const auto keys = test::unique_keys(10000, 3);
  test::parallel_insert(t, keys);
  EXPECT_EQ(t.count(), keys.size());
  EXPECT_GT(t.growth_count(), 0u);
  EXPECT_GE(t.capacity(), keys.size());
  for (const auto k : keys) ASSERT_TRUE(t.contains(k)) << k;
}

TEST(GrowableTable, NoGrowthWhenPreSized) {
  gtable t(1 << 14);
  test::parallel_insert(t, test::unique_keys(1000, 5));
  EXPECT_EQ(t.growth_count(), 0u);
  EXPECT_EQ(t.capacity(), 1u << 14);
}

TEST(GrowableTable, MigratedLayoutEqualsFreshTable) {
  // Growing must preserve history-independence: the layout after migration
  // equals inserting the same set into a fixed table of the final capacity.
  gtable grown(32);
  const auto keys = test::unique_keys(3000, 7);
  test::parallel_insert(grown, keys);
  deterministic_table<int_entry<>> fixed(grown.capacity());
  test::parallel_insert(fixed, keys);
  EXPECT_EQ(grown.elements(), fixed.elements());
}

TEST(GrowableTable, FindAndEraseAfterGrowth) {
  gtable t(16);
  const auto keys = test::unique_keys(2000, 9);
  test::parallel_insert(t, keys);
  const std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 1200);
  test::parallel_erase(t, dels);
  EXPECT_EQ(t.count(), keys.size() - dels.size());
  for (std::size_t i = 1200; i < keys.size(); ++i) ASSERT_TRUE(t.contains(keys[i]));
  for (const auto d : dels) ASSERT_FALSE(t.contains(d));
}

TEST(GrowableTable, DuplicateHeavyInsertLoad) {
  gtable t(16);
  const auto keys = test::dup_keys(40000, 6000, 13);
  test::parallel_insert(t, keys);
  const std::set<std::uint64_t> expected(keys.begin(), keys.end());
  EXPECT_EQ(t.count(), expected.size());
}

TEST(GrowableTable, DeterministicAcrossGrowthPaths) {
  // Different initial capacities take different growth schedules but end in
  // the same final capacity must give identical contents (element order may
  // legitimately differ only if final capacities differ).
  const auto keys = test::unique_keys(5000, 15);
  gtable a(16);
  gtable b(1024);
  test::parallel_insert(a, keys);
  test::parallel_insert(b, keys);
  ASSERT_EQ(a.capacity(), b.capacity());
  EXPECT_EQ(a.elements(), b.elements());
}

// The wrapper implements whole-batch members the free batch functions
// forward to, and its inner table must satisfy the growable_source contract.
static_assert(batch_forwarding_table<gtable>);
static_assert(growable_source<gtable::inner_table>);
static_assert(phase_table<gtable>);

TEST(GrowableTable, BatchInsertForcesMultipleGrowthsMidBatch) {
  gtable t(64);
  const auto keys = test::unique_keys(20000, 19);
  insert_batch(t, keys);  // forwards to the wrapper's chunked member
  const std::set<std::uint64_t> ref(keys.begin(), keys.end());
  // 64 -> >= 32768 to hold 20000 keys under the 3/4 ceiling: many growths,
  // all triggered between chunks of this one batch.
  EXPECT_GE(t.growth_count(), 2u);
  EXPECT_GE(t.capacity() - t.capacity() / 4, ref.size());
  ASSERT_EQ(t.count(), ref.size());
  EXPECT_EQ(t.approx_size(), ref.size());  // striped counter survives migration
  const auto elems = t.elements();
  const std::set<std::uint64_t> got(elems.begin(), elems.end());
  EXPECT_EQ(got, ref);
}

TEST(GrowableTable, BatchInsertLayoutEqualsFreshTableOfFinalCapacity) {
  // Batched migration must preserve history independence exactly like the
  // scalar path: the grown table's layout equals a one-shot build.
  gtable grown(32);
  const auto keys = test::dup_keys(9000, 6000, 23);
  insert_batch(grown, keys);
  ASSERT_GE(grown.growth_count(), 2u);
  deterministic_table<int_entry<>> fixed(grown.capacity());
  insert_batch(fixed, keys);
  EXPECT_EQ(grown.elements(), fixed.elements());
}

TEST(GrowableTable, FindAndEraseBatchesForwardThroughWrapper) {
  gtable t(128);
  const auto keys = test::unique_keys(5000, 29);
  insert_batch(t, keys);
  const auto out = find_batch(t, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(out[i], keys[i]);
  const std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 2000);
  erase_batch(t, dels);
  EXPECT_EQ(t.count(), keys.size() - dels.size());
  EXPECT_EQ(t.approx_size(), keys.size() - dels.size());
  for (const auto d : dels) ASSERT_FALSE(t.contains(d));
}

TEST(GrowableTable, StressManyConcurrentGrowers) {
  // Small initial size + many threads maximizes the chance of concurrent
  // growth attempts racing in enter()/grow(). Each growth frees the old slot
  // array in place, so a writer that slipped past the drain would lose its
  // insert (or, under ASan, touch freed memory).
  std::size_t growths = 0;
  for (int rep = 0; rep < 12; ++rep) {
    gtable t(16);
    const auto keys = test::unique_keys(20000, 100 + rep);
    test::parallel_insert(t, keys);
    ASSERT_EQ(t.count(), keys.size());
    std::atomic<std::size_t> missing{0};
    parallel_for(0, keys.size(), [&](std::size_t i) {
      if (!t.contains(keys[i])) missing.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(missing.load(), 0u) << "rep " << rep;
    growths += t.growth_count();
  }
  EXPECT_GE(growths, 100u);  // 16 -> 32768 is 11 doublings, x12 repetitions
}

}  // namespace
}  // namespace phch
