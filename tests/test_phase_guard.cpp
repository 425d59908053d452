// Phase-discipline enforcement (Definition 1) on real tables: every
// table's phase scopes accept same-phase concurrency and find+elements
// mixing, and report (by default: abort) when operations of different
// classes overlap in time. Overlaps are made deterministic by
// test::hooked_entry, whose hash runs a hook from inside an operation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "phch/core/deterministic_table.h"
#include "phch/core/phase_runtime.h"
#include "table_test_util.h"

namespace phch {
namespace {

using test::hooked_entry;
using hooked_table = deterministic_table<hooked_entry>;

using test::violation_capture;

// Installs the capturing handler for one test and restores the aborting
// default afterwards. A handler that returns lets the program go on.
struct capturing {
  capturing() {
    violation_capture::calls = 0;
    EXPECT_EQ(set_phase_violation_handler(&violation_capture::capture),
              &abort_on_phase_violation);
  }
  ~capturing() {
    set_phase_violation_handler(nullptr);
    hooked_entry::hook = nullptr;
  }
};

TEST(PhaseGuard, SequentialPhasesAreAccepted) {
  deterministic_table<int_entry<>> t(1 << 12);
  const auto keys = test::unique_keys(1000, 3);
  test::parallel_insert(t, keys);   // insert phase
  for (const auto k : keys) ASSERT_TRUE(t.contains(k));  // find phase
  (void)t.elements();               // elements shares the find phase
  test::parallel_erase(t, keys);    // delete phase
  EXPECT_EQ(t.count(), 0u);
}

TEST(PhaseGuard, ConcurrentSameClassOpsAreAccepted) {
  deterministic_table<int_entry<>> t(1 << 16);
  test::parallel_insert(t, test::unique_keys(20000, 5));  // concurrent inserts
  std::atomic<std::size_t> hits{0};
  parallel_for(0, 20000, [&](std::size_t i) {
    if (t.contains(1 + i)) hits.fetch_add(1);  // concurrent finds
  });
  SUCCEED();
}

TEST(PhaseGuard, FindAndElementsShareAPhase) {
  deterministic_table<int_entry<>> t(256);
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
        hooked_table t(256);
        hooked_entry::trigger = 7;
        hooked_entry::hook = [&] { t.insert(8); };  // illegal overlap
        (void)t.find(7);
      },
      "phase-concurrency violation");
}

TEST(PhaseGuardDeath, DeleteWhileInsertInFlightAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        hooked_table t(256);
        hooked_entry::trigger = 7;
        hooked_entry::hook = [&] { t.erase(8); };  // illegal overlap
        t.insert(7);
      },
      "phase-concurrency violation");
}

TEST(PhaseGuard, ScopesOfOneClassNest) {
  capturing c;
  hooked_table t(256);
  hooked_entry::trigger = 7;
  hooked_entry::hook = [&] { t.insert(8); };  // an insert inside an insert
  t.insert(7);
  EXPECT_EQ(violation_capture::calls.load(), 0);
  EXPECT_EQ(t.phase_rt().epoch(), 1u);
  EXPECT_EQ(t.count(), 2u);
}

TEST(PhaseGuard, PhaseBoundaryResetsState) {
  capturing c;
  deterministic_table<int_entry<>> t(256);
  t.insert(1);
  t.erase(1);
  (void)t.find(1);
  t.insert(2);
  EXPECT_EQ(violation_capture::calls.load(), 0);
  EXPECT_EQ(t.phase_rt().epoch(), 4u);
}

TEST(PhaseGuard, PluggableHandlerReceivesStructuredReport) {
  capturing c;
  hooked_table t(256);
  t.insert(8);  // epoch 1: insert
  hooked_entry::trigger = 7;
  hooked_entry::hook = [&] { t.insert(9); };  // epoch 3: insert
  (void)t.find(7);                            // epoch 2: query
  ASSERT_EQ(violation_capture::calls.load(), 1);
  const phase_violation& v = violation_capture::last;
  EXPECT_EQ(v.runtime, &t.phase_rt());
  EXPECT_EQ(v.kind, op_kind::query);
  EXPECT_EQ(phase_runtime::epoch_of(v.entered), 2u);
  EXPECT_EQ(phase_runtime::class_of(v.entered), static_cast<std::uint64_t>(op_kind::query));
  EXPECT_EQ(phase_runtime::epoch_of(v.seen), 3u);
  EXPECT_EQ(phase_runtime::class_of(v.seen), static_cast<std::uint64_t>(op_kind::insert));
  // Whatever this thread's scheduler identity is, the report carries it.
  EXPECT_EQ(v.worker, scheduler::worker_id());
}

TEST(PhaseGuard, RestoringDefaultHandlerReturnsInstalledOne) {
  phase_violation_handler prev = set_phase_violation_handler(&violation_capture::capture);
  EXPECT_EQ(set_phase_violation_handler(nullptr), &violation_capture::capture);
  (void)prev;
}

// Two threads, one table, an overlap forced by handshakes: thread 1's find
// waits inside its scope until thread 2 has finished an insert. Only the
// operation that started first sees the word change, so exactly one report.
TEST(PhaseGuard, OverlapAcrossThreadsIsReportedOnce) {
  capturing c;
  hooked_table t(1 << 10);
  t.insert(8);
  std::atomic<bool> finding{false};
  std::atomic<bool> inserted{false};
  hooked_entry::trigger = 7;
  hooked_entry::hook = [&] {
    finding.store(true, std::memory_order_release);
    while (!inserted.load(std::memory_order_acquire)) std::this_thread::yield();
  };
  std::thread finder([&] { (void)t.find(7); });
  std::thread inserter([&] {
    while (!finding.load(std::memory_order_acquire)) std::this_thread::yield();
    t.insert(9);
    inserted.store(true, std::memory_order_release);
  });
  finder.join();
  inserter.join();
  ASSERT_EQ(violation_capture::calls.load(), 1);
  EXPECT_EQ(violation_capture::last.kind, op_kind::query);
  EXPECT_EQ(violation_capture::last.worker, -1);  // neither is a pool worker
  EXPECT_EQ(t.phase_rt().epoch(), 3u);
}

// An exception that leaves an operation unwinds its scope without a
// report, and the table's phase word stays usable: the next query phase
// advances the epoch exactly once. BlockTables.ExceptionInsideOpLeavesNoReport
// (test_batch_ops) covers an exception thrown by the hash, in every block
// table family's block members and scalar ops.
TEST(PhaseGuard, TableFullErrorLeavesNoReport) {
  capturing c;
  deterministic_table<int_entry<>> t(8);
  for (std::uint64_t k = 1; k <= t.capacity(); ++k) t.insert(k);
  const std::uint64_t epoch = t.phase_rt().epoch();
  EXPECT_THROW(t.insert(t.capacity() + 1), table_full_error);
  EXPECT_EQ(t.phase_rt().epoch(), epoch);
  (void)t.elements();
  (void)t.elements();
  EXPECT_EQ(t.phase_rt().epoch(), epoch + 1);
  EXPECT_EQ(violation_capture::calls.load(), 0);
}

}  // namespace
}  // namespace phch
