// Phase-discipline enforcement (Definition 1): the checked policy accepts
// same-phase concurrency and find+elements mixing, and aborts the process
// when operations of different classes overlap in time.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "phch/core/deterministic_table.h"
#include "phch/core/phase_guard.h"
#include "table_test_util.h"

namespace phch {
namespace {

using checked = deterministic_table<int_entry<>, checked_phases>;

TEST(PhaseGuard, SequentialPhasesAreAccepted) {
  checked t(1 << 12);
  const auto keys = test::unique_keys(1000, 3);
  test::parallel_insert(t, keys);   // insert phase
  for (const auto k : keys) ASSERT_TRUE(t.contains(k));  // find phase
  (void)t.elements();               // elements shares the find phase
  test::parallel_erase(t, keys);    // delete phase
  EXPECT_EQ(t.count(), 0u);
}

TEST(PhaseGuard, ConcurrentSameClassOpsAreAccepted) {
  checked t(1 << 16);
  test::parallel_insert(t, test::unique_keys(20000, 5));  // concurrent inserts
  std::atomic<std::size_t> hits{0};
  parallel_for(0, 20000, [&](std::size_t i) {
    if (t.contains(1 + i)) hits.fetch_add(1);  // concurrent finds
  });
  SUCCEED();
}

TEST(PhaseGuard, FindAndElementsShareAPhase) {
  checked t(256);
  t.insert(1);
  std::thread reader([&] {
    for (int i = 0; i < 100; ++i) (void)t.elements();
  });
  for (int i = 0; i < 1000; ++i) (void)t.contains(1);
  reader.join();
  SUCCEED();
}

using PhaseGuardDeath = ::testing::Test;

TEST(PhaseGuardDeath, InsertWhileQueryInFlightAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        checked_phases g;
        checked_phases::scope query(g, op_kind::query);
        checked_phases::scope insert(g, op_kind::insert);  // illegal overlap
      },
      "phase-concurrency violation");
}

TEST(PhaseGuardDeath, DeleteWhileInsertInFlightAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        checked_phases g;
        checked_phases::scope insert(g, op_kind::insert);
        checked_phases::scope erase(g, op_kind::erase);  // illegal overlap
      },
      "phase-concurrency violation");
}

TEST(PhaseGuard, ScopesOfOneClassNest) {
  checked_phases g;
  checked_phases::scope a(g, op_kind::insert);
  checked_phases::scope b(g, op_kind::insert);
  checked_phases::scope c(g, op_kind::insert);
  SUCCEED();
}

TEST(PhaseGuard, PhaseBoundaryResetsState) {
  checked_phases g;
  { checked_phases::scope a(g, op_kind::insert); }
  { checked_phases::scope b(g, op_kind::erase); }
  { checked_phases::scope c(g, op_kind::query); }
  SUCCEED();
}

// A test-installed handler intercepts the structured report in-process; the
// offending operation then proceeds (useful for counting violations in
// fuzz-style tests without dying on the first one).
namespace violation_capture {
phase_violation last;
int calls = 0;
void capture(const phase_violation& v) {
  last = v;
  ++calls;
}
}  // namespace violation_capture

TEST(PhaseGuard, PluggableHandlerReceivesStructuredReport) {
  violation_capture::calls = 0;
  phase_violation_handler prev = set_phase_violation_handler(&violation_capture::capture);
  EXPECT_EQ(prev, &abort_on_phase_violation);
  {
    checked_phases g;
    g.set_name("report-test");
    checked_phases::scope query(g, op_kind::query);
    checked_phases::scope insert(g, op_kind::insert);  // illegal overlap
  }
  set_phase_violation_handler(nullptr);  // restore the aborting default
  ASSERT_EQ(violation_capture::calls, 1);
  const phase_violation& v = violation_capture::last;
  EXPECT_EQ(v.table_name, std::string("report-test"));
  EXPECT_NE(v.table, nullptr);
  EXPECT_EQ(v.attempted, op_kind::insert);
  EXPECT_EQ(v.in_flight[static_cast<int>(op_kind::query)], 1u);
  EXPECT_EQ(v.in_flight[static_cast<int>(op_kind::insert)], 0u);
  EXPECT_EQ(v.in_flight[static_cast<int>(op_kind::erase)], 0u);
  // Whatever this thread's scheduler identity is, the report carries it.
  EXPECT_EQ(v.worker, scheduler::worker_id());
}

TEST(PhaseGuard, RestoringDefaultHandlerReturnsInstalledOne) {
  phase_violation_handler prev = set_phase_violation_handler(&violation_capture::capture);
  EXPECT_EQ(set_phase_violation_handler(nullptr), &violation_capture::capture);
  (void)prev;
}

TEST(PhaseGuard, PoliciesCarryExactlyOnePhaseStateWord) {
  // Both policies are views over a single phase_runtime cache line — the
  // table's sole phase-state word (it drives the obs tracer and the phase
  // epoch, so it is functional state, not instrumentation). The
  // default policy adds nothing beyond it; checked adds only the in-flight
  // counters and the debug name. Compile-time property, asserted via size.
  static_assert(sizeof(unchecked_phases) == sizeof(phase_runtime));
  static_assert(sizeof(deterministic_table<int_entry<>>) < sizeof(checked));
  SUCCEED();
}

}  // namespace
}  // namespace phch
