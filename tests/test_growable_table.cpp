// Resizing extension (§4 "Resizing"): the load bound that grows the table,
// migration correctness, determinism of the final layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "phch/core/growable_table.h"
#include "phch/core/table_concepts.h"
#include "phch/parallel/parallel_for.h"
#include "table_test_util.h"

namespace phch {
namespace {

using gtable = growable_table<int_entry<>>;

// Sets the pool to `p` workers for one scope, and back on exit.
class workers_scope {
 public:
  explicit workers_scope(int p) : original_(scheduler::get().num_workers()) {
    scheduler::get().set_num_workers(p);
  }
  ~workers_scope() { scheduler::get().set_num_workers(original_); }
  workers_scope(const workers_scope&) = delete;
  workers_scope& operator=(const workers_scope&) = delete;

 private:
  int original_;
};

// Runs body(lane) on one parallel lane per worker, started together: a fill
// of a few keys is over long before an idle worker wakes up. Each lane
// waits at a start line until all have arrived (spinning, then yielding to
// lanes that share its core) or `wait` has passed.
template <typename Body>
void race_lanes(std::chrono::microseconds wait, const Body& body) {
  const std::size_t lanes = static_cast<std::size_t>(scheduler::get().num_workers());
  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> arrived{0};
  parallel_for(0, lanes, [&](std::size_t lane) {
    arrived.fetch_add(1);
    while (arrived.load() < lanes) {
      const auto waited = std::chrono::steady_clock::now() - start;
      if (waited > wait) break;
      if (waited > wait / 4) std::this_thread::yield();
      cpu_relax();
    }
    body(lane);
  }, 1);
}

// One insert phase of `keys` into t, each lane inserting its share one key
// at a time (scalar) or in batches of up to four (insert_batch).
void racing_fill(gtable& t, const std::vector<std::uint64_t>& keys, bool batch) {
  const std::size_t lanes = static_cast<std::size_t>(scheduler::get().num_workers());
  const std::size_t n = keys.size();
  race_lanes(std::chrono::milliseconds(1), [&](std::size_t lane) {
    const std::size_t hi = (lane + 1) * n / lanes;
    for (std::size_t i = lane * n / lanes; i < hi; i += batch ? 4 : 1) {
      if (batch) {
        t.insert_batch(keys.data() + i, std::min<std::size_t>(4, hi - i));
      } else {
        t.insert(keys[i]);
      }
    }
  });
}

// The smallest doubling of capacity `c` whose load ceiling holds n
// elements: 3/4 of the capacity, but never every slot.
std::size_t ceiling_capacity(std::size_t c, std::size_t n) {
  while (c - std::max<std::size_t>(c / 4, 1) < n) c *= 2;
  return c;
}

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
  // Duplicates raise the load bound without adding elements, so it crosses
  // the 3/4 ceiling again and again. Each crossing takes one exact count,
  // which grows the table no further than its 6000 keys need: half of 16384.
  gtable t(16);
  const auto keys = test::dup_keys(40000, 6000, 13);
  test::parallel_insert(t, keys);
  const std::set<std::uint64_t> expected(keys.begin(), keys.end());
  EXPECT_EQ(t.count(), expected.size());
  EXPECT_LE(t.capacity(), 16384u);
  deterministic_table<int_entry<>> fixed(t.capacity());
  test::parallel_insert(fixed, keys);
  EXPECT_EQ(t.elements(), fixed.elements());
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
// forward to.
static_assert(batch_forwarding_table<gtable>);
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
  const auto elems = t.elements();
  const std::set<std::uint64_t> got(elems.begin(), elems.end());
  EXPECT_EQ(got, ref);
}

TEST(GrowableTable, BatchInsertLayoutEqualsFreshTableOfFinalCapacity) {
  // Batched migration must preserve history independence exactly like the
  // scalar path: the grown table's layout equals a one-shot build. In the
  // duplicate-heavy input the later chunks keep crossing the ceiling; a
  // chunk must fit as an upper bound, and 6000 keys plus one 4096-key chunk
  // fit under 3/4 of 16384 slots.
  for (const std::size_t n : {std::size_t{9000}, std::size_t{40000}}) {
    gtable grown(32);
    const auto keys = test::dup_keys(n, 6000, 23);
    insert_batch(grown, keys);
    ASSERT_GE(grown.growth_count(), 2u);
    EXPECT_LE(grown.capacity(), 16384u);
    deterministic_table<int_entry<>> fixed(grown.capacity());
    insert_batch(fixed, keys);
    EXPECT_EQ(grown.elements(), fixed.elements());
  }
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
  for (const auto d : dels) ASSERT_FALSE(t.contains(d));
}

TEST(GrowableTable, InsertEraseChurnAtTheCeilingDoesNotRunAway) {
  // Erases never lower the load bound, so 30 rounds of 700 fresh keys in and
  // out keep crossing the ceiling of a table that never holds more than
  // 700 — more than half of 1024 slots, so it may grow once.
  gtable t(1024);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t round = 0; round < 30; ++round) {
    if (round > 0) test::parallel_erase(t, keys);
    keys = test::unique_keys(700, 200 + round);
    if (round % 2 == 0) {
      test::parallel_insert(t, keys);
    } else {
      insert_batch(t, keys);
    }
    ASSERT_EQ(t.count(), keys.size()) << "round " << round;
  }
  EXPECT_LE(t.growth_count(), 1u);
  deterministic_table<int_entry<>> fixed(t.capacity());
  test::parallel_insert(fixed, keys);
  EXPECT_EQ(t.elements(), fixed.elements());
}

TEST(GrowableTable, BatchInsertsInsideAParallelRegionComplete) {
  // Batches issued from parallel_for workers into one table that must grow.
  // Every batch is over 2048 keys, so its pipelined insert would fork. A
  // chunk that forked while holding its writer slot could steal a sibling
  // batch, which would then wait forever in the resize for that slot to
  // drain; ctest's TIMEOUT turns such a hang into a failure. Racing chunks
  // must also fit under the ceiling together, or the table fills up.
  struct shape {
    std::size_t initial, batches, per_batch;
  };
  for (const shape sh : {shape{16, 32, 4096}, shape{1 << 16, 64, 2500}}) {
    for (int rep = 0; rep < 4; ++rep) {
      gtable t(sh.initial);
      const auto keys = test::unique_keys(sh.batches * sh.per_batch, 300 + rep);
      parallel_for(0, sh.batches, [&](std::size_t b) {
        t.insert_batch(keys.data() + b * sh.per_batch, sh.per_batch);
      }, 1);
      ASSERT_EQ(t.count(), keys.size()) << "initial " << sh.initial << " rep " << rep;
    }
  }
}

TEST(GrowableTable, SmallInitialCapacityNeverFills) {
  // Racing inserts into a tiny table must grow it before it fills: a full
  // table throws table_full_error on insert, and a find for an absent key
  // would probe forever. At capacity 2, 3/4 of the slots is every slot.
  for (const int p : {4, 7}) {
    const workers_scope workers(p);
    for (const std::size_t initial : {1, 2, 4, 8}) {
      // Keep every worker busy for a while first, so that the kernel spreads
      // them over the cores and the fills' lanes really run at once.
      race_lanes(std::chrono::milliseconds(10), [](std::size_t) {
        const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
        while (std::chrono::steady_clock::now() < until) cpu_relax();
      });
      for (int rep = 0; rep < 300; ++rep) {
        const std::size_t n = 3 + static_cast<std::size_t>(rep) % 58;
        const auto keys = test::unique_keys(n, 400 + rep);
        for (const bool batch : {false, true}) {
          SCOPED_TRACE(::testing::Message() << "workers " << p << " initial " << initial
                                            << " n " << n << " batch " << batch);
          gtable t(initial);
          ASSERT_NO_THROW(racing_fill(t, keys, batch));
          ASSERT_EQ(t.count(), n);
          ASSERT_FALSE(t.contains(8 * n + 17));  // above every key unique_keys draws
        }
      }
    }
  }
}

TEST(GrowableTable, UniqueKeyCapacityIndependentOfWorkers) {
  // With distinct keys the load bound is an exact count, so the table grows
  // exactly when the ceiling is crossed: the final capacity is the smallest
  // doubling whose ceiling holds n, whatever the worker count and path. The
  // pairs sit on both sides of a ceiling; 12289 crosses it in the last
  // chunk of a batch.
  struct shape {
    std::size_t initial, n;
  };
  const shape shapes[] = {{1, 1},    {1, 2},     {2, 1},     {2, 2},     {4, 3},
                          {4, 4},    {16, 12},   {16, 13},   {64, 48},   {64, 49},
                          {1024, 768}, {1024, 769}, {64, 12288}, {64, 12289}};
  for (const int p : {1, 2, 4, 7}) {
    const workers_scope workers(p);
    for (const shape sh : shapes) {
      const auto keys = test::unique_keys(sh.n, 500 + sh.n);
      for (const bool batch : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "workers " << p << " initial " << sh.initial
                                          << " n " << sh.n << " batch " << batch);
        gtable t(sh.initial);
        const std::size_t initial_capacity = t.capacity();  // at least 2
        if (batch) {
          t.insert_batch(keys.data(), keys.size());
        } else {
          test::parallel_insert(t, keys);
        }
        ASSERT_EQ(t.count(), sh.n);
        EXPECT_EQ(t.capacity(), ceiling_capacity(initial_capacity, sh.n));
      }
    }
  }
}

TEST(GrowableTable, StressManyConcurrentGrowers) {
  // Small initial size + many threads maximizes the chance of concurrent
  // growth attempts racing in enter()/resync(). Each growth frees the old slot
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
