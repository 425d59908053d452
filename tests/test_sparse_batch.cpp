// The sparse-table family (chained, cuckoo, hopscotch) on the unified
// concepts/batch/telemetry stack: every table models phase_table /
// deletable_table / block_table, so the free batch functions drive its
// pipelined block members — never the scalar fallback — with set semantics
// identical to per-op calls across all six paper key distributions. (The
// block-length sweep and the phase-check tests over all five block tables
// live in test_batch_ops.cpp.) None of the three has a deterministic layout
// (eviction interleavings, displacement order, and chain order are all
// history-dependent), so equality is of element *sets*, not slot arrays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/chained_table.h"
#include "phch/core/cuckoo_table.h"
#include "phch/core/hopscotch_table.h"
#include "phch/core/table_concepts.h"
#include "phch/workloads/sequences.h"
#include "phch/workloads/trigram.h"
#include "table_test_util.h"

namespace phch {
namespace {

// One test-family per sparse table; `table<Traits>` fixes the non-traits
// template arguments to the variant the paper benchmarks (chainedHash-CR,
// hopscotchHash with timestamps).
struct chained_family {
  template <typename Tr>
  using table = chained_table<Tr, true>;
};
struct cuckoo_family {
  template <typename Tr>
  using table = cuckoo_table<Tr>;
};
struct hopscotch_family {
  template <typename Tr>
  using table = hopscotch_table<Tr, true>;
};

template <typename Family>
class SparseBatch : public ::testing::Test {};
using Families = ::testing::Types<chained_family, cuckoo_family, hopscotch_family>;
TYPED_TEST_SUITE(SparseBatch, Families);

// --- the concepts each table claims ----------------------------------------
// block_table is what makes the free insert_batch/find_batch/erase_batch
// drive the tables' block members instead of the scalar fallback; none of
// them forwards whole batches (only growable_table does). None of the three
// exposes a raw slot array, so the open-addressing stats/layout machinery
// stays off.
template <typename T>
constexpr void assert_sparse_concepts() {
  static_assert(phase_table<T>);
  static_assert(deletable_table<T>);
  static_assert(block_table<T>);
  static_assert(!batch_forwarding_table<T>);
  static_assert(!open_addressing_table<T>);
}

TYPED_TEST(SparseBatch, ModelsClaimedConcepts) {
  assert_sparse_concepts<typename TypeParam::template table<int_entry<>>>();
  assert_sparse_concepts<typename TypeParam::template table<pair_entry<combine_min>>>();
  assert_sparse_concepts<typename TypeParam::template table<string_entry>>();
}

// --- batch vs scalar: set-semantics equality --------------------------------

template <typename V, typename Less>
std::vector<V> sorted(std::vector<V> v, Less less) {
  std::sort(v.begin(), v.end(), less);
  return v;
}

constexpr auto less_u64 = [](std::uint64_t a, std::uint64_t b) { return a < b; };
constexpr auto less_kv = [](const kv64& a, const kv64& b) {
  return a.k != b.k ? a.k < b.k : a.v < b.v;
};

// Inserts `input` through the block-member batch path into one table and the
// plain per-op loop into another, then requires equal contents, equal finds
// for `queries`, equal contents again after erasing half the queries, and
// both tables empty after erasing every input key.
template <typename Table, typename Seq, typename Keys, typename Less>
void check_batch_vs_scalar(const Seq& input, const Keys& queries,
                           std::size_t capacity, Less less) {
  Table batched(capacity);
  Table scalar(capacity);
  insert_batch(batched, input);  // free fn -> block members
  test::parallel_insert(scalar, input);

  ASSERT_EQ(batched.count(), scalar.count());
  {
    const auto eb = sorted(batched.elements(), less);
    const auto es = sorted(scalar.elements(), less);
    ASSERT_EQ(eb.size(), es.size());
    for (std::size_t i = 0; i < eb.size(); ++i) {
      ASSERT_TRUE(bits_equal(eb[i], es[i])) << "element " << i;
    }
  }

  const auto fb = find_batch(batched, queries);
  const auto fs = test::find_batch_scalar(scalar, queries);
  ASSERT_EQ(fb.size(), fs.size());
  for (std::size_t i = 0; i < fb.size(); ++i) {
    ASSERT_TRUE(bits_equal(fb[i], fs[i])) << "query " << i;
  }

  Keys dels;
  for (std::size_t i = 0; i < queries.size(); i += 2) dels.push_back(queries[i]);
  erase_batch(batched, dels);  // free fn -> block members
  test::parallel_erase(scalar, dels);
  ASSERT_EQ(batched.count(), scalar.count());
  const auto eb = sorted(batched.elements(), less);
  const auto es = sorted(scalar.elements(), less);
  ASSERT_EQ(eb.size(), es.size());
  for (std::size_t i = 0; i < eb.size(); ++i) {
    ASSERT_TRUE(bits_equal(eb[i], es[i])) << "element " << i;
  }

  Keys all;
  for (const auto& v : input) all.push_back(Table::traits::key(v));
  erase_batch(batched, all);
  test::parallel_erase(scalar, all);
  ASSERT_EQ(batched.count(), 0u);
  ASSERT_EQ(scalar.count(), 0u);
}

// 2^16 slots sit on 4 KB pages; 2^18 eight-byte slots fill 2 MB, so cuckoo's
// and hopscotch's slot_array takes its 2 MB-aligned huge-page allocation.
TYPED_TEST(SparseBatch, RandomInt) {
  using Table = typename TypeParam::template table<int_entry<>>;
  const auto seq = workloads::random_int_seq(20000, 11);
  std::vector<std::uint64_t> qs(seq.begin(), seq.begin() + 4000);
  qs.push_back(1ULL << 50);  // absent
  for (const std::size_t capacity : {std::size_t{1} << 16, std::size_t{1} << 18}) {
    check_batch_vs_scalar<Table>(seq, qs, capacity, less_u64);
  }
}

TYPED_TEST(SparseBatch, ExptInt) {
  using Table = typename TypeParam::template table<int_entry<>>;
  const auto seq = workloads::expt_int_seq(20000, 12);
  std::vector<std::uint64_t> qs(seq.begin(), seq.begin() + 4000);
  qs.push_back(1ULL << 50);
  check_batch_vs_scalar<Table>(seq, qs, 1 << 16, less_u64);
}

TYPED_TEST(SparseBatch, RandomPairInt) {
  using Table = typename TypeParam::template table<pair_entry<combine_min>>;
  const auto seq = workloads::random_pair_seq(16000, 13);
  std::vector<std::uint64_t> qs;
  for (std::size_t i = 0; i < 3000; ++i) qs.push_back(seq[i].k);
  check_batch_vs_scalar<Table>(seq, qs, 1 << 16, less_kv);
}

TYPED_TEST(SparseBatch, ExptPairInt) {
  using Table = typename TypeParam::template table<pair_entry<combine_add>>;
  const auto seq = workloads::expt_pair_seq(16000, 14);
  std::vector<std::uint64_t> qs;
  for (std::size_t i = 0; i < 3000; ++i) qs.push_back(seq[i].k);
  check_batch_vs_scalar<Table>(seq, qs, 1 << 16, less_kv);
}

// String keys are stored by pointer and trigram sequences repeat contents
// at distinct addresses; without a combine function the surviving *pointer*
// is arrival-order-dependent even though the surviving key contents are
// not, so the string distributions are compared by contents.
TYPED_TEST(SparseBatch, TrigramString) {
  using Table = typename TypeParam::template table<string_entry>;
  const auto words = workloads::trigram_string_seq(8000, 15);
  Table batched(1 << 15);
  Table scalar(1 << 15);
  insert_batch(batched, words.keys);
  test::parallel_insert(scalar, words.keys);
  ASSERT_EQ(batched.count(), scalar.count());
  const auto by_contents = [](const char* a, const char* b) {
    return std::strcmp(a, b) < 0;
  };
  const auto eb = sorted(batched.elements(), by_contents);
  const auto es = sorted(scalar.elements(), by_contents);
  ASSERT_EQ(eb.size(), es.size());
  for (std::size_t i = 0; i < eb.size(); ++i) {
    ASSERT_EQ(std::strcmp(eb[i], es[i]), 0) << i;
  }
  std::vector<const char*> qs(words.keys.begin(), words.keys.begin() + 2000);
  const auto fb = find_batch(batched, qs);
  const auto fs = test::find_batch_scalar(scalar, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(std::strcmp(fb[i], fs[i]), 0) << i;
  }
  erase_batch(batched, qs);
  test::parallel_erase(scalar, qs);
  ASSERT_EQ(batched.count(), scalar.count());
}

// trigramSeq-pairInt stores record pointers whose combine keeps the stored
// record on value ties, so the surviving pointer can differ run to run even
// though the surviving (key, value) cannot.
TYPED_TEST(SparseBatch, TrigramPairInt) {
  using Table = typename TypeParam::template table<string_pair_entry>;
  const auto words = workloads::trigram_pair_seq(8000, 16);
  Table batched(1 << 15);
  Table scalar(1 << 15);
  insert_batch(batched, words.entries);
  test::parallel_insert(scalar, words.entries);
  ASSERT_EQ(batched.count(), scalar.count());
  const auto by_contents = [](const string_pair_entry::value_type a,
                              const string_pair_entry::value_type b) {
    const int c = std::strcmp(a->key, b->key);
    return c != 0 ? c < 0 : a->value < b->value;
  };
  const auto eb = sorted(batched.elements(), by_contents);
  const auto es = sorted(scalar.elements(), by_contents);
  ASSERT_EQ(eb.size(), es.size());
  for (std::size_t i = 0; i < eb.size(); ++i) {
    ASSERT_EQ(std::strcmp(eb[i]->key, es[i]->key), 0) << i;
    ASSERT_EQ(eb[i]->value, es[i]->value) << i;
  }
  std::vector<const char*> qs;
  for (std::size_t i = 0; i < 2000; ++i) qs.push_back(words.entries[i]->key);
  const auto fb = find_batch(batched, qs);
  const auto fs = test::find_batch_scalar(scalar, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(fb[i]->value, fs[i]->value) << i;
  }
}

}  // namespace
}  // namespace phch
