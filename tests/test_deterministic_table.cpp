// linearHash-D: semantics, the ordering invariant (Definition 2), and the
// headline property — the slot layout is a deterministic function of the
// key set, independent of insertion order, interleaving and thread count
// (Theorem 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/serial_table.h"
#include "phch/parallel/scheduler.h"
#include "table_test_util.h"

namespace phch {
namespace {

using test::ordering_invariant_holds;
using itable = deterministic_table<int_entry<>>;

TEST(DeterministicTable, InsertThenFind) {
  itable t(64);
  t.insert(5);
  t.insert(9);
  t.insert(123);
  EXPECT_TRUE(t.contains(5));
  EXPECT_TRUE(t.contains(9));
  EXPECT_TRUE(t.contains(123));
  EXPECT_FALSE(t.contains(6));
  EXPECT_EQ(t.count(), 3u);
}

TEST(DeterministicTable, DuplicateInsertsAreIdempotent) {
  itable t(64);
  for (int r = 0; r < 10; ++r) t.insert(17);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_TRUE(t.contains(17));
}

TEST(DeterministicTable, FindReturnsStoredValue) {
  itable t(64);
  t.insert(100);
  EXPECT_EQ(t.find(100), 100u);
  EXPECT_EQ(t.find(101), int_entry<>::empty());
}

TEST(DeterministicTable, CapacityRoundsToPowerOfTwo) {
  itable t(1000);
  EXPECT_EQ(t.capacity(), 1024u);
  itable t2(1024);
  EXPECT_EQ(t2.capacity(), 1024u);
}

TEST(DeterministicTable, CountsInsertedKeys) {
  itable t(256);
  const auto keys = test::unique_keys(100);
  test::parallel_insert(t, keys);
  EXPECT_EQ(t.count(), 100u);
}

TEST(DeterministicTable, ThrowsWhenFull) {
  itable t(16);  // capacity 16
  EXPECT_THROW(
      {
        for (std::uint64_t k = 1; k <= 64; ++k) t.insert(k);
      },
      table_full_error);
}

TEST(DeterministicTable, MatchesStdSetSemantics) {
  itable t(1 << 14);
  const auto keys = test::dup_keys(10000, 3000, 42);
  test::parallel_insert(t, keys);
  const std::set<std::uint64_t> expected(keys.begin(), keys.end());
  EXPECT_EQ(t.count(), expected.size());
  auto elems = t.elements();
  std::sort(elems.begin(), elems.end());
  EXPECT_TRUE(std::equal(elems.begin(), elems.end(), expected.begin(), expected.end()));
  for (const auto k : expected) ASSERT_TRUE(t.contains(k));
}

TEST(DeterministicTable, OrderingInvariantAfterConcurrentInserts) {
  itable t(1 << 14);
  test::parallel_insert(t, test::dup_keys(12000, 9000, 7));
  EXPECT_TRUE(ordering_invariant_holds<int_entry<>>(t.raw_slots(), t.capacity()));
}

TEST(DeterministicTable, LayoutMatchesSerialHistoryIndependent) {
  const auto keys = test::dup_keys(20000, 15000, 11);
  itable par(1 << 15);
  test::parallel_insert(par, keys);
  serial_table_hi<int_entry<>> ser(1 << 15);
  for (const auto k : keys) ser.insert(k);
  ASSERT_EQ(par.capacity(), ser.capacity());
  for (std::size_t s = 0; s < par.capacity(); ++s) {
    ASSERT_EQ(par.raw_slots()[s], ser.raw_slots()[s]) << "slot " << s;
  }
}

TEST(DeterministicTable, LayoutIndependentOfInsertionOrder) {
  const auto keys = test::unique_keys(5000, 3);
  itable a(1 << 13);
  itable b(1 << 13);
  test::parallel_insert(a, keys);
  test::parallel_insert(b, test::shuffled(keys, 99));
  for (std::size_t s = 0; s < a.capacity(); ++s) {
    ASSERT_EQ(a.raw_slots()[s], b.raw_slots()[s]);
  }
}

TEST(DeterministicTable, ElementsIdenticalAcrossThreadCounts) {
  const auto keys = test::dup_keys(30000, 20000, 5);
  std::vector<std::vector<std::uint64_t>> results;
  scheduler& sched = scheduler::get();
  const int original = sched.num_workers();
  for (const int p : {1, 2, 4, 8}) {
    sched.set_num_workers(p);
    itable t(1 << 16);
    test::parallel_insert(t, keys);
    results.push_back(t.elements());
  }
  sched.set_num_workers(original);
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0], results[i]) << "thread count run " << i;
  }
}

TEST(DeterministicTable, ElementsIsSlotOrderPack) {
  itable t(1 << 10);
  const auto keys = test::unique_keys(300, 8);
  test::parallel_insert(t, keys);
  const auto elems = t.elements();
  ASSERT_EQ(elems.size(), 300u);
  // Must equal the occupied slots read in index order.
  std::vector<std::uint64_t> expected;
  for (std::size_t s = 0; s < t.capacity(); ++s) {
    if (!int_entry<>::is_empty(t.raw_slots()[s])) expected.push_back(t.raw_slots()[s]);
  }
  EXPECT_EQ(elems, expected);
}

TEST(DeterministicTable, ClearEmptiesTheTable) {
  itable t(1 << 10);
  test::parallel_insert(t, test::unique_keys(200, 2));
  t.clear();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_TRUE(t.elements().empty());
  t.insert(4);
  EXPECT_TRUE(t.contains(4));
}

// Every key a multi-worker insert phase inserted is found afterwards, by the
// scalar find and by the pipelined batch find. At load 0.5 displacing CASes
// often race on one slot, so a find that decided from anything but the slot
// words could stop short of a present key.
TEST(DeterministicTable, FindSeesEveryKeyAfterConcurrentInsertPhase) {
  scheduler& sched = scheduler::get();
  const int original = sched.num_workers();
  sched.set_num_workers(4);
  std::size_t scalar_misses = 0;
  std::size_t batch_misses = 0;
  for (std::uint64_t round = 0; round < 500; ++round) {
    itable t(1 << 10);
    const auto keys = test::unique_keys(512, round + 1);
    test::parallel_insert(t, keys);
    const auto batched = find_batch(t, keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      scalar_misses += t.find(keys[i]) != keys[i];
      batch_misses += batched[i] != keys[i];
    }
  }
  sched.set_num_workers(original);
  EXPECT_EQ(scalar_misses, 0u);
  EXPECT_EQ(batch_misses, 0u);
}

// --- key-value combining ---------------------------------------------------

TEST(DeterministicTable, CombineMinKeepsMinimumValue) {
  deterministic_table<pair_entry<combine_min>> t(1 << 12);
  constexpr std::size_t n = 5000;
  parallel_for(0, n, [&](std::size_t i) {
    t.insert(kv64{1 + (i % 10), hash64(i) % 100000});
  });
  EXPECT_EQ(t.count(), 10u);
  for (std::uint64_t k = 1; k <= 10; ++k) {
    std::uint64_t expected = ~0ULL;
    for (std::size_t i = 0; i < n; ++i) {
      if (1 + (i % 10) == k) expected = std::min(expected, hash64(i) % 100000);
    }
    EXPECT_EQ(t.find(k).v, expected) << k;
  }
}

TEST(DeterministicTable, CombineAddSumsValues) {
  deterministic_table<pair_entry<combine_add>> t(1 << 10);
  constexpr std::size_t n = 20000;
  parallel_for(0, n, [&](std::size_t i) { t.insert(kv64{1 + (i % 7), 1}); });
  std::uint64_t total = 0;
  for (std::uint64_t k = 1; k <= 7; ++k) total += t.find(k).v;
  EXPECT_EQ(total, n);
}

TEST(DeterministicTable, PairLayoutDeterministicUnderCombining) {
  const auto mk = [] {
    deterministic_table<pair_entry<combine_min>> t(1 << 12);
    parallel_for(0, 8000, [&](std::size_t i) {
      t.insert(kv64{1 + hash64(i) % 1000, hash64(i ^ 0xabc) % 50});
    });
    return t.elements();
  };
  EXPECT_EQ(mk(), mk());
}

// --- string keys -------------------------------------------------------------

TEST(DeterministicTable, StringKeyLayoutIndependentOfPointerValues) {
  // Two copies of the same strings at different addresses must produce the
  // same key sequence from elements() (priority is content-based).
  const std::vector<std::string> words = {"delta", "alpha", "omega", "beta",
                                          "kappa", "sigma", "zeta",  "eta"};
  auto run = [&](std::size_t pad) {
    std::vector<std::string> storage;
    storage.reserve(words.size() + pad);
    for (std::size_t i = 0; i < pad; ++i) storage.push_back("padpadpad");
    for (const auto& w : words) storage.push_back(w);
    deterministic_table<string_entry> t(64);
    for (std::size_t i = pad; i < storage.size(); ++i) t.insert(storage[i].c_str());
    std::vector<std::string> out;
    for (const char* p : t.elements()) out.emplace_back(p);
    return out;
  };
  EXPECT_EQ(run(0), run(5));
}

TEST(DeterministicTable, StringKeysDedupByContent) {
  const char a1[] = "same";
  const char a2[] = "same";  // distinct address, equal content
  deterministic_table<string_entry> t(16);
  t.insert(a1);
  t.insert(a2);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_TRUE(t.contains("same"));
}

}  // namespace
}  // namespace phch
