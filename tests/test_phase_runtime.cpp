// phase_runtime (core/phase_runtime.h): the single per-table phase-state
// word. Epoch monotonicity, the exactly-once transition edge under
// concurrency (worker counts 1/4/8), checked/unchecked policy equivalence
// (both are views over the same state machine), batch scopes sharing the
// scalar epoch, and violation-handler interception surviving the refactor
// unchanged.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/phase_guard.h"
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

// Both phase policies are views over the same state machine: the same
// operation sequence produces the same epoch trajectory, and every
// first-party table exposes the word through phase_rt().
TEST(PhaseRuntime, CheckedAndUncheckedPoliciesDriveTheSameEpoch) {
  using unchecked_t = deterministic_table<int_entry<>>;
  using checked_t = deterministic_table<int_entry<>, checked_phases>;
  static_assert(phase_epoch_table<unchecked_t>);
  static_assert(phase_epoch_table<checked_t>);

  unchecked_t u(1 << 10);
  checked_t c(1 << 10);
  const auto run = [](auto& t) {
    t.insert(1);        // idle -> insert
    t.insert(2);        // same class
    (void)t.find(1);    // -> query
    (void)t.contains(2);
    (void)t.elements(); // elements shares the query class
    t.erase(1);         // -> erase
    (void)t.find(2);    // -> query
  };
  run(u);
  run(c);
  EXPECT_EQ(u.phase_rt().epoch(), 4u);
  EXPECT_EQ(c.phase_rt().epoch(), u.phase_rt().epoch());
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
namespace capture {
phase_violation last;
std::atomic<int> calls{0};
void handler(const phase_violation& v) {
  last = v;
  calls.fetch_add(1);
}
}  // namespace capture

TEST(PhaseRuntime, ViolationHandlerInterceptionUnchanged) {
  capture::calls = 0;
  phase_violation_handler prev = set_phase_violation_handler(&capture::handler);
  EXPECT_EQ(prev, &abort_on_phase_violation);
  checked_phases g;
  g.set_name("runtime-report-test");
  {
    checked_phases::scope query(g, op_kind::query);
    checked_phases::scope insert(g, op_kind::insert);  // illegal overlap
  }
  set_phase_violation_handler(nullptr);  // restore the aborting default
  ASSERT_EQ(capture::calls.load(), 1);
  EXPECT_EQ(capture::last.table_name, std::string("runtime-report-test"));
  EXPECT_EQ(capture::last.attempted, op_kind::insert);
  EXPECT_EQ(capture::last.in_flight[static_cast<int>(op_kind::query)], 1u);
  // Both scopes announced their class; the overlap is two transitions.
  EXPECT_EQ(g.runtime().epoch(), 2u);
}

}  // namespace
}  // namespace phch
