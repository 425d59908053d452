// phase_runtime (core/phase_runtime.h): the single per-table phase-state
// word. Epoch monotonicity, the exactly-once transition edge under
// concurrency (worker counts 1/4/8), every table driving the same epoch
// trajectory through its scopes, batch scopes sharing the scalar epoch, and
// the violation handler intercepting a report while the epoch stays
// tracked.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/chained_table.h"
#include "phch/core/cuckoo_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/hopscotch_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/phase_runtime.h"
#include "phch/core/table_concepts.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/scheduler.h"
#include "table_test_util.h"

namespace phch {
namespace {

TEST(PhaseRuntime, EpochAdvancesOncePerClassChange) {
  phase_runtime r;
  EXPECT_EQ(r.epoch(), 0u);
  EXPECT_EQ(r.current_class(), phase_runtime::kIdle);

  EXPECT_TRUE(r.on_op(op_kind::insert));  // idle -> insert is a transition
  EXPECT_EQ(r.epoch(), 1u);
  EXPECT_FALSE(r.on_op(op_kind::insert));  // same class: no edge
  EXPECT_FALSE(r.on_op(op_kind::insert));
  EXPECT_EQ(r.epoch(), 1u);
  EXPECT_EQ(r.current_class(), static_cast<std::uint64_t>(op_kind::insert));

  EXPECT_TRUE(r.on_op(op_kind::query));
  EXPECT_EQ(r.epoch(), 2u);
  EXPECT_TRUE(r.on_op(op_kind::erase));
  EXPECT_FALSE(r.on_op(op_kind::erase));
  EXPECT_EQ(r.epoch(), 3u);
  EXPECT_TRUE(r.on_op(op_kind::query));
  EXPECT_EQ(r.epoch(), 4u);
}

// The transition edge is exactly-once by construction: when many threads
// announce the same class concurrently, exactly one wins the CAS, for every
// worker count.
TEST(PhaseRuntime, ExactlyOnceTransitionEdgeAcrossWorkerCounts) {
  const int original = num_workers();
  const op_kind seq[] = {op_kind::insert, op_kind::query, op_kind::erase,
                         op_kind::query, op_kind::insert};
  for (const int p : {1, 4, 8}) {
    scheduler::get().set_num_workers(p);
    phase_runtime r;
    std::uint64_t expected_epoch = 0;
    for (const op_kind cls : seq) {
      std::atomic<std::uint64_t> winners{0};
      parallel_for(0, 1024, [&](std::size_t) {
        if (r.on_op(cls)) winners.fetch_add(1, std::memory_order_relaxed);
      });
      ++expected_epoch;
      EXPECT_EQ(winners.load(), 1u) << "p=" << p;
      EXPECT_EQ(r.epoch(), expected_epoch) << "p=" << p;
    }
  }
  scheduler::get().set_num_workers(original);
}

// Every table announces its operations through the one word, so the same
// operation sequence produces the same epoch trajectory on each, and each
// exposes the word through phase_rt().
template <typename Table>
void expect_epoch_trajectory() {
  static_assert(phase_epoch_table<Table>);
  Table t(1 << 10);
  t.insert(1);        // idle -> insert
  t.insert(2);        // same class
  (void)t.find(1);    // -> query
  (void)t.contains(2);
  (void)t.elements(); // elements shares the query class
  t.erase(1);         // -> erase
  (void)t.find(2);    // -> query
  EXPECT_EQ(t.phase_rt().epoch(), 4u);
  EXPECT_EQ(t.phase_rt().current_class(), static_cast<std::uint64_t>(op_kind::query));
}

TEST(PhaseRuntime, EveryTableDrivesTheSameEpoch) {
  expect_epoch_trajectory<deterministic_table<int_entry<>>>();
  expect_epoch_trajectory<nd_linear_table<int_entry<>>>();
  expect_epoch_trajectory<cuckoo_table<int_entry<>>>();
  expect_epoch_trajectory<hopscotch_table<int_entry<>, true>>();
  expect_epoch_trajectory<hopscotch_table<int_entry<>, false>>();
  expect_epoch_trajectory<chained_table<int_entry<>, false>>();
  expect_epoch_trajectory<chained_table<int_entry<>, true>>();
}

// Batch scopes are routed through the same word as scalar operations: a
// whole batch is one phase announcement, and mixing batch and scalar
// operations of one class costs one transition, not two.
TEST(PhaseRuntime, BatchScopesShareTheScalarEpoch) {
  deterministic_table<int_entry<>> t(1 << 12);
  const auto keys = test::unique_keys(2000, 7);
  insert_batch(t, keys);  // idle -> insert (one edge for the whole batch)
  EXPECT_EQ(t.phase_rt().epoch(), 1u);
  t.insert(keys.front() + 1000000);  // scalar insert, same class: no edge
  EXPECT_EQ(t.phase_rt().epoch(), 1u);
  (void)find_batch(t, keys);  // -> query
  EXPECT_EQ(t.phase_rt().epoch(), 2u);
  (void)t.contains(keys.front());  // scalar query: no edge
  EXPECT_EQ(t.phase_rt().epoch(), 2u);
  erase_batch(t, keys);  // -> erase
  EXPECT_EQ(t.phase_rt().epoch(), 3u);
}

// The pluggable violation handler still intercepts structured reports, and
// the runtime keeps tracking epochs across a (handled) violation.
TEST(PhaseRuntime, ViolationHandlerInterceptionUnchanged) {
  using capture = test::violation_capture;
  capture::calls = 0;
  phase_violation_handler prev = set_phase_violation_handler(&capture::capture);
  EXPECT_EQ(prev, &abort_on_phase_violation);
  deterministic_table<test::hooked_entry> t(1 << 10);
  test::hooked_entry::trigger = 7;
  test::hooked_entry::hook = [&] { t.insert(8); };  // illegal overlap
  (void)t.find(7);
  set_phase_violation_handler(nullptr);  // restore the aborting default
  ASSERT_EQ(capture::calls.load(), 1);
  EXPECT_EQ(capture::last.runtime, &t.phase_rt());
  EXPECT_EQ(capture::last.kind, op_kind::query);
  // Both operations announced their class; the overlap is two transitions.
  EXPECT_EQ(t.phase_rt().epoch(), 2u);
  EXPECT_EQ(phase_runtime::epoch_of(capture::last.seen), 2u);
}

}  // namespace
}  // namespace phch
