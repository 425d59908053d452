// Batched operations with software-pipelined (AMAC-style) probing:
// identical semantics — and for deterministic tables identical *layouts* —
// to per-op scalar calls, on every workload distribution and block length,
// for every table with block members.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/chained_table.h"
#include "phch/core/cuckoo_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/hopscotch_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/table_concepts.h"
#include "phch/obs/telemetry.h"
#include "phch/workloads/sequences.h"
#include "phch/workloads/trigram.h"
#include "table_test_util.h"

namespace phch {
namespace {

template <typename Table>
void expect_same_layout(const Table& a, const Table& b) {
  ASSERT_EQ(a.capacity(), b.capacity());
  for (std::size_t s = 0; s < a.capacity(); ++s) {
    ASSERT_TRUE(bits_equal(a.raw_slots()[s], b.raw_slots()[s])) << "slot " << s;
  }
}

TEST(BatchOps, InsertBatchEqualsPerOpLayout) {
  const auto keys = test::dup_keys(20000, 12000, 3);
  deterministic_table<int_entry<>> a(1 << 16);
  deterministic_table<int_entry<>> b(1 << 16);
  insert_batch(a, keys);
  test::parallel_insert(b, keys);
  expect_same_layout(a, b);
}

TEST(BatchOps, FindBatchMatchesPerOpFinds) {
  const auto keys = test::unique_keys(5000, 5);
  deterministic_table<int_entry<>> t(1 << 14);
  insert_batch(t, keys);
  std::vector<std::uint64_t> queries = keys;
  queries.push_back(999999999ULL);  // absent
  queries.push_back(888888888ULL);
  const auto out = find_batch(t, queries);
  ASSERT_EQ(out.size(), queries.size());
  for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(out[i], keys[i]);
  EXPECT_TRUE(int_entry<>::is_empty(out[keys.size()]));
  EXPECT_TRUE(int_entry<>::is_empty(out[keys.size() + 1]));
}

TEST(BatchOps, EraseBatchRemovesExactlyTheBatch) {
  const auto keys = test::unique_keys(6000, 7);
  deterministic_table<int_entry<>> t(1 << 14);
  insert_batch(t, keys);
  const std::vector<std::uint64_t> dels(keys.begin(), keys.begin() + 2500);
  erase_batch(t, dels);
  EXPECT_EQ(t.count(), keys.size() - dels.size());
  for (std::size_t i = 2500; i < keys.size(); ++i) ASSERT_TRUE(t.contains(keys[i]));
  for (const auto d : dels) ASSERT_FALSE(t.contains(d));
}

TEST(BatchOps, WorksOnNdTable) {
  const auto keys = test::unique_keys(4000, 9);
  nd_linear_table<int_entry<>> t(1 << 13);
  insert_batch(t, keys);
  EXPECT_EQ(t.count(), keys.size());
  const auto out = find_batch(t, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(out[i], keys[i]);
  erase_batch(t, keys);
  EXPECT_EQ(t.count(), 0u);
}

TEST(BatchOps, PairEntriesWithCombining) {
  deterministic_table<pair_entry<combine_add>> t(1 << 12);
  const auto batch = tabulate(10000, [](std::size_t i) {
    return kv64{1 + (i % 5), 1};
  });
  insert_batch(t, batch);
  const std::vector<std::uint64_t> qs{1, 2, 3, 4, 5};
  const auto out = find_batch(t, qs);
  std::uint64_t total = 0;
  for (const auto& e : out) total += e.v;
  EXPECT_EQ(total, 10000u);
}

TEST(BatchOps, TinyBatches) {
  deterministic_table<int_entry<>> t(64);
  insert_batch(t, std::vector<std::uint64_t>{});
  insert_batch(t, std::vector<std::uint64_t>{7});
  EXPECT_TRUE(t.contains(7));
  EXPECT_TRUE(find_batch(t, std::vector<std::uint64_t>{}).empty());
}

// --- pipelined engine vs scalar, all six paper distributions ---------------
//
// The deterministic table's layout after insert_batch must be bit-identical
// to the layout after a scalar parallel insert loop (Theorem 1 makes that
// the uniquely determined layout), and pipelined finds/erases must agree
// with scalar ones element for element.

template <typename Traits, typename Seq, typename Keys>
void check_pipelined_vs_scalar(const Seq& input, const Keys& queries,
                               std::size_t capacity) {
  deterministic_table<Traits> piped(capacity);
  deterministic_table<Traits> scalar(capacity);
  insert_batch(piped, input);
  test::parallel_insert(scalar, input);
  expect_same_layout(piped, scalar);
  EXPECT_TRUE((test::ordering_invariant_holds<Traits>(piped.raw_slots(),
                                                      piped.capacity())));

  const auto via_pipe = find_batch(piped, queries);
  const auto via_scalar = test::find_batch_scalar(scalar, queries);
  ASSERT_EQ(via_pipe.size(), via_scalar.size());
  for (std::size_t i = 0; i < via_pipe.size(); ++i) {
    ASSERT_TRUE(bits_equal(via_pipe[i], via_scalar[i])) << "query " << i;
  }

  // Erase every other query key through both paths; layouts must stay equal.
  Keys dels;
  for (std::size_t i = 0; i < queries.size(); i += 2) dels.push_back(queries[i]);
  erase_batch(piped, dels);
  test::parallel_erase(scalar, dels);
  expect_same_layout(piped, scalar);
}

TEST(BatchOpsDistributions, RandomInt) {
  const auto seq = workloads::random_int_seq(20000, 11);
  std::vector<std::uint64_t> qs(seq.begin(), seq.begin() + 4000);
  qs.push_back(1ULL << 50);  // absent
  check_pipelined_vs_scalar<int_entry<>>(seq, qs, 1 << 16);
}

TEST(BatchOpsDistributions, ExptInt) {
  const auto seq = workloads::expt_int_seq(20000, 12);
  std::vector<std::uint64_t> qs(seq.begin(), seq.begin() + 4000);
  qs.push_back(1ULL << 50);
  check_pipelined_vs_scalar<int_entry<>>(seq, qs, 1 << 16);
}

TEST(BatchOpsDistributions, RandomPairInt) {
  const auto seq = workloads::random_pair_seq(16000, 13);
  std::vector<std::uint64_t> qs;
  for (std::size_t i = 0; i < 3000; ++i) qs.push_back(seq[i].k);
  check_pipelined_vs_scalar<pair_entry<combine_min>>(seq, qs, 1 << 16);
}

TEST(BatchOpsDistributions, ExptPairInt) {
  const auto seq = workloads::expt_pair_seq(16000, 14);
  std::vector<std::uint64_t> qs;
  for (std::size_t i = 0; i < 3000; ++i) qs.push_back(seq[i].k);
  check_pipelined_vs_scalar<pair_entry<combine_add>>(seq, qs, 1 << 16);
}

// String keys are stored by pointer and trigram sequences repeat contents at
// distinct addresses; without a combine function the surviving *pointer* is
// arrival-order-dependent even though the surviving key contents are not, so
// the string distributions are compared by contents rather than raw bits.
TEST(BatchOpsDistributions, TrigramString) {
  const auto words = workloads::trigram_string_seq(8000, 15);
  deterministic_table<string_entry> piped(1 << 15);
  deterministic_table<string_entry> scalar(1 << 15);
  insert_batch(piped, words.keys);
  test::parallel_insert(scalar, words.keys);
  EXPECT_TRUE((test::ordering_invariant_holds<string_entry>(piped.raw_slots(),
                                                            piped.capacity())));
  const auto ep = piped.elements();
  const auto es = scalar.elements();
  ASSERT_EQ(ep.size(), es.size());
  for (std::size_t i = 0; i < ep.size(); ++i) {
    ASSERT_EQ(std::strcmp(ep[i], es[i]), 0) << i;
  }
  std::vector<const char*> qs(words.keys.begin(), words.keys.begin() + 2000);
  const auto fp = find_batch(piped, qs);
  const auto fs = test::find_batch_scalar(scalar, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(std::strcmp(fp[i], fs[i]), 0) << i;
  }
  erase_batch(piped, qs);
  test::parallel_erase(scalar, qs);
  EXPECT_EQ(piped.count(), scalar.count());
}

// trigramSeq-pairInt stores record *pointers* whose combine function breaks
// value ties by keeping the stored record, so the surviving pointer can
// differ run to run even though the surviving (key, value) cannot; compare
// contents instead of raw slots for this distribution.
TEST(BatchOpsDistributions, TrigramPairInt) {
  const auto words = workloads::trigram_pair_seq(8000, 16);
  deterministic_table<string_pair_entry> piped(1 << 15);
  deterministic_table<string_pair_entry> scalar(1 << 15);
  insert_batch(piped, words.entries);
  test::parallel_insert(scalar, words.entries);
  const auto ep = piped.elements();
  const auto es = scalar.elements();
  ASSERT_EQ(ep.size(), es.size());
  for (std::size_t i = 0; i < ep.size(); ++i) {
    ASSERT_EQ(std::strcmp(ep[i]->key, es[i]->key), 0) << i;
    ASSERT_EQ(ep[i]->value, es[i]->value) << i;
  }
  std::vector<const char*> qs;
  for (std::size_t i = 0; i < 2000; ++i) qs.push_back(words.entries[i]->key);
  const auto fp = find_batch(piped, qs);
  const auto fs = test::find_batch_scalar(scalar, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(fp[i]->value, fs[i]->value) << i;
  }
}

// --- combining traits over the 16-byte-CAS path ----------------------------

TEST(BatchOps, InsertBatchCombining16ByteCasMatchesScalarLayout) {
  // Heavy duplication so most pipelined inserts hand off into the combine
  // (double-word CAS) branch rather than a fresh claim.
  const auto batch = tabulate(30000, [](std::size_t i) {
    return kv64{1 + hash64(i) % 500, 1 + (i % 7)};
  });
  deterministic_table<pair_entry<combine_add>> piped(1 << 13);
  deterministic_table<pair_entry<combine_add>> scalar(1 << 13);
  insert_batch(piped, batch);
  test::parallel_insert(scalar, batch);
  expect_same_layout(piped, scalar);
}

// --- insert / erase batches alternating across phase boundaries ------------

TEST(BatchOps, EraseBatchInterleavedWithInsertBatchAcrossPhases) {
  deterministic_table<int_entry<>> piped(1 << 15);
  deterministic_table<int_entry<>> scalar(1 << 15);
  std::set<std::uint64_t> reference;
  for (std::uint64_t round = 0; round < 4; ++round) {
    // Insert phase: a fresh slab plus re-inserts of surviving older keys.
    auto ins = test::dup_keys(6000, 4000, 100 + round);
    insert_batch(piped, ins);
    test::parallel_insert(scalar, ins);
    reference.insert(ins.begin(), ins.end());
    // Delete phase: every third key currently present.
    std::vector<std::uint64_t> dels;
    std::size_t i = 0;
    for (const auto k : reference) {
      if (i++ % 3 == 0) dels.push_back(k);
    }
    erase_batch(piped, dels);
    test::parallel_erase(scalar, dels);
    for (const auto k : dels) reference.erase(k);
    // Phase boundary: layouts identical, contents equal to the reference.
    expect_same_layout(piped, scalar);
    ASSERT_EQ(piped.count(), reference.size());
  }
  const auto elems = piped.elements();
  const std::set<std::uint64_t> got(elems.begin(), elems.end());
  EXPECT_EQ(got, reference);
}

// --- every block table through the common block members --------------------
//
// All five block tables (linearHash-D, linearHash-ND, cuckoo, hopscotch,
// chained) expose the same insert_block / find_block / erase_block, so one
// typed suite drives them. Only linearHash-D has a
// history-independent layout; the others are compared as element sets.

struct lineard_family {
  template <typename Tr>
  using table = deterministic_table<Tr>;
  static constexpr bool same_layout = true;
};
struct linearnd_family {
  template <typename Tr>
  using table = nd_linear_table<Tr>;
  static constexpr bool same_layout = false;
};
struct cuckoo_family {
  template <typename Tr>
  using table = cuckoo_table<Tr>;
  static constexpr bool same_layout = false;
};
struct hopscotch_family {
  template <typename Tr>
  using table = hopscotch_table<Tr, true>;
  static constexpr bool same_layout = false;
};
struct chained_family {
  template <typename Tr>
  using table = chained_table<Tr, true>;
  static constexpr bool same_layout = false;
};

template <typename Family>
class BlockTables : public ::testing::Test {};
using BlockFamilies = ::testing::Types<lineard_family, linearnd_family, cuckoo_family,
                                       hopscotch_family, chained_family>;
TYPED_TEST_SUITE(BlockTables, BlockFamilies);

template <typename Family, typename Table>
void expect_same_contents(const Table& a, const Table& b) {
  ASSERT_EQ(a.count(), b.count());
  auto ea = a.elements();
  auto eb = b.elements();
  std::sort(ea.begin(), ea.end());
  std::sort(eb.begin(), eb.end());
  ASSERT_EQ(ea, eb);
  if constexpr (Family::same_layout) expect_same_layout(a, b);
}

// Block lengths around the ring width: no lane (0), one, one short of a
// full ring, a full ring, one refill, and many refills and retires. Each
// block member must match the scalar loops on the same keys.
TYPED_TEST(BlockTables, EveryBlockLengthMatchesScalar) {
  using Table = typename TypeParam::template table<int_entry<>>;
  // About 6.6k distinct keys in 2^14 slots: load ~0.40, long enough
  // linear probe chains to cross cache lines, under cuckoo's 0.5 limit.
  const auto all = test::dup_keys(12000, 9000, 21);
  constexpr std::uint64_t absent = 1ULL << 49;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kBatchWidth - 1, kBatchWidth, kBatchWidth + 1,
        all.size()}) {
    SCOPED_TRACE(testing::Message() << "block length " << n);
    const std::vector<std::uint64_t> keys(all.begin(), all.begin() + n);
    std::vector<std::uint64_t> queries = keys;
    queries.push_back(absent);
    std::vector<std::uint64_t> dels(keys.begin(),
                                    keys.begin() + std::min<std::size_t>(n, 5000));
    dels.push_back(absent);  // an absent erase must be a no-op
    Table reference(1 << 14);
    test::parallel_insert(reference, keys);
    const auto ref_finds = test::find_batch_scalar(reference, queries);
    Table erased_ref(1 << 14);
    test::parallel_insert(erased_ref, keys);
    test::parallel_erase(erased_ref, dels);

    Table t(1 << 14);
    t.insert_block(keys.data(), keys.size());
    expect_same_contents<TypeParam>(t, reference);

    std::vector<std::uint64_t> out(queries.size());
    t.find_block(queries.data(), queries.size(), out.data());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(out[i], ref_finds[i]) << "query " << i;
    }

    t.erase_block(dels.data(), dels.size());
    expect_same_contents<TypeParam>(t, erased_ref);

    t.erase_block(queries.data(), queries.size());
    ASSERT_EQ(t.count(), 0u);
  }
}

TYPED_TEST(BlockTables, EmptyAndShortBlocks) {
  using Table = typename TypeParam::template table<int_entry<>>;
  const auto keys = test::unique_keys(5, 23);  // fewer ops than lanes
  Table t(1 << 10);
  std::vector<std::uint64_t> out(keys.size(), 0);
  t.insert_block(keys.data(), 0);
  t.find_block(keys.data(), 0, out.data());
  t.erase_block(keys.data(), 0);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(out, std::vector<std::uint64_t>(keys.size(), 0));

  t.insert_block(keys.data(), keys.size());
  EXPECT_EQ(t.count(), keys.size());
  t.find_block(keys.data(), keys.size(), out.data());
  EXPECT_EQ(out, keys);
  t.erase_block(keys.data(), keys.size());
  EXPECT_EQ(t.count(), 0u);
}

TYPED_TEST(BlockTables, CheckedPhasesAcceptsBatchSequences) {
  using Table = typename TypeParam::template table<int_entry<>>;
  const auto keys = test::unique_keys(5000, 31);  // several blocks
  Table t(1 << 14);
  insert_batch(t, keys);
  const auto found = find_batch(t, keys);
  for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(found[i], keys[i]);
  erase_batch(t, keys);
  EXPECT_EQ(t.count(), 0u);
}

// test::hooked_entry's hook runs when a block member hashes the trigger key
// as its lane starts, between the scalar steps of the other lanes: inside
// the block but outside any per-operation scope, so only the block's own
// scope can see a conflicting operation started there.
using test::violation_capture;

// The block's scope reports the overlap once, as its own class, having
// seen the epoch move past the one it entered.
void expect_block_report(int calls, op_kind block) {
  EXPECT_EQ(violation_capture::calls.load(), calls);
  EXPECT_EQ(violation_capture::last.kind, block);
  EXPECT_GT(phase_runtime::epoch_of(violation_capture::last.seen),
            phase_runtime::epoch_of(violation_capture::last.entered));
}

TYPED_TEST(BlockTables, CheckedPhasesReportsConflictInsideBlock) {
  using test::hooked_entry;
  using Table = typename TypeParam::template table<hooked_entry>;
  const auto keys = test::unique_keys(200, 37);
  constexpr std::uint64_t other = 1ULL << 40;  // never one of `keys`
  Table t(1 << 12);
  t.insert(other);
  hooked_entry::trigger = keys[100];
  violation_capture::calls = 0;
  const phase_violation_handler prev =
      set_phase_violation_handler(&violation_capture::capture);

  hooked_entry::hook = [&] { (void)t.find(other); };  // a query starts...
  t.insert_block(keys.data(), keys.size());           // ...inside an insert block
  expect_block_report(1, op_kind::insert);
  EXPECT_EQ(violation_capture::last.runtime, &t.phase_rt());

  std::vector<std::uint64_t> out(keys.size());
  hooked_entry::hook = [&] { t.insert(other); };
  t.find_block(keys.data(), keys.size(), out.data());
  expect_block_report(2, op_kind::query);

  hooked_entry::hook = [&] { (void)t.find(other); };
  t.erase_block(keys.data(), keys.size());
  expect_block_report(3, op_kind::erase);

  set_phase_violation_handler(prev);
  hooked_entry::hook = nullptr;
  EXPECT_EQ(out, keys);
  EXPECT_EQ(t.count(), 1u);
}

// An exception thrown from inside an operation (here by the key's hash)
// propagates out of every block member and scalar op and unwinds its phase
// scope without a report. The phase word stays usable: each operation
// advances the epoch once, for its own class change, and the next phase
// does the same.
TYPED_TEST(BlockTables, ExceptionInsideOpLeavesNoReport) {
  using test::hooked_entry;
  using Table = typename TypeParam::template table<hooked_entry>;
  const auto keys = test::unique_keys(100, 41);
  const std::uint64_t thrower = keys[50];
  Table t(1 << 10);
  std::vector<std::uint64_t> out(keys.size());
  violation_capture::calls = 0;
  const phase_violation_handler prev =
      set_phase_violation_handler(&violation_capture::capture);
  const std::function<void()> ops[] = {
      [&] { t.insert_block(keys.data(), keys.size()); },
      [&] { t.find_block(keys.data(), keys.size(), out.data()); },
      [&] { t.erase_block(keys.data(), keys.size()); },
      [&] { t.insert(thrower); },
      [&] { (void)t.find(thrower); },
      [&] { t.erase(thrower); },
  };
  std::uint64_t epoch = t.phase_rt().epoch();
  for (std::size_t i = 0; i < std::size(ops); ++i) {
    SCOPED_TRACE(testing::Message() << "op " << i);
    hooked_entry::trigger = thrower;
    hooked_entry::hook = [] { throw std::runtime_error("hash failed"); };
    EXPECT_THROW(ops[i](), std::runtime_error);
    EXPECT_EQ(t.phase_rt().epoch(), ++epoch);
  }
  (void)t.elements();
  (void)t.elements();
  EXPECT_EQ(t.phase_rt().epoch(), epoch + 1);
  set_phase_violation_handler(prev);
  hooked_entry::hook = nullptr;
  EXPECT_EQ(violation_capture::calls.load(), 0);
}

// A linear block op hashes its key once: the lane's start hashes it, and
// the step runs from that hash (displaced elements are carried, never
// re-hashed, on insert).
template <typename Table>
void expect_one_hash_per_block_op() {
  using test::counting_entry;
  const auto keys = test::unique_keys(3000, 43);
  Table t(1 << 13);
  counting_entry::hashes = 0;
  t.insert_block(keys.data(), keys.size());
  EXPECT_EQ(counting_entry::hashes.load(), keys.size());
  std::vector<std::uint64_t> out(keys.size());
  counting_entry::hashes = 0;
  t.find_block(keys.data(), keys.size(), out.data());
  EXPECT_EQ(counting_entry::hashes.load(), keys.size());
  EXPECT_EQ(out, keys);
}

TEST(BatchOps, LinearBlockOpsHashEachKeyOnce) {
  expect_one_hash_per_block_op<deterministic_table<test::counting_entry>>();
  expect_one_hash_per_block_op<nd_linear_table<test::counting_entry>>();
}

// A sparse table's handoff block hashes each key once as well: the lane's
// prefetch hashes it, and the scalar op runs from that hash. Cuckoo's
// insert_block is not counted, because its evictions hash their victims.
template <typename Table>
void expect_one_hash_per_sparse_block_op(bool count_inserts) {
  using test::counting_entry;
  const auto keys = test::unique_keys(3000, 43);
  Table t(1 << 13);
  counting_entry::hashes = 0;
  t.insert_block(keys.data(), keys.size());
  if (count_inserts) {
    EXPECT_EQ(counting_entry::hashes.load(), keys.size());
  }
  std::vector<std::uint64_t> out(keys.size());
  counting_entry::hashes = 0;
  t.find_block(keys.data(), keys.size(), out.data());
  EXPECT_EQ(counting_entry::hashes.load(), keys.size());
  EXPECT_EQ(out, keys);
  counting_entry::hashes = 0;
  t.erase_block(keys.data(), keys.size());
  EXPECT_EQ(counting_entry::hashes.load(), keys.size());
  EXPECT_EQ(t.count(), 0u);
}

TEST(BatchOps, SparseBlockOpsHashEachKeyOnce) {
  expect_one_hash_per_sparse_block_op<cuckoo_table<test::counting_entry>>(false);
  expect_one_hash_per_sparse_block_op<hopscotch_table<test::counting_entry>>(true);
  expect_one_hash_per_sparse_block_op<chained_table<test::counting_entry>>(true);
}

}  // namespace
}  // namespace phch
