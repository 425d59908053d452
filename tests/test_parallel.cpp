// Scheduler and parallel_for behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "phch/parallel/parallel_for.h"
#include "phch/parallel/scheduler.h"

namespace phch {
namespace {

TEST(Scheduler, ReportsAtLeastOneWorker) {
  EXPECT_GE(num_workers(), 1);
}

TEST(Scheduler, InParallelFlagIsSetInsideJobsOnly) {
  EXPECT_FALSE(scheduler::in_parallel());
  std::atomic<bool> seen{true};
  const auto check = [&] {
    if (!scheduler::in_parallel()) seen = false;
  };
  par_do([&] { parallel_for(0, 10000, [&](std::size_t) { check(); }, 1); }, check);
  EXPECT_TRUE(seen.load());
  EXPECT_FALSE(scheduler::in_parallel());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, RespectsNonZeroLowerBound) {
  std::atomic<std::size_t> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10 + 11 + ... + 19
}

TEST(ParallelFor, NestedInvocationsRunInline) {
  constexpr std::size_t n = 64;
  std::vector<std::atomic<int>> hits(n * n);
  parallel_for(0, n, [&](std::size_t i) {
    parallel_for(0, n, [&](std::size_t j) { hits[i * n + j].fetch_add(1); });
  });
  for (std::size_t k = 0; k < n * n; ++k) ASSERT_EQ(hits[k].load(), 1);
}

TEST(ParallelFor, PropagatesExceptionsToCaller) {
  EXPECT_THROW(
      parallel_for(0, 10000,
                   [&](std::size_t i) {
                     if (i == 4321) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExplicitGrainStillCoversRange) {
  constexpr std::size_t n = 12345;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, 7);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(BlockedFor, BlocksAreContiguousAndCoverRange) {
  constexpr std::size_t n = 10007;
  constexpr std::size_t bsize = 97;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<std::size_t> blocks{0};
  blocked_for(0, n, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
    EXPECT_EQ(s, b * bsize);
    EXPECT_LE(e, n);
    EXPECT_LE(e - s, bsize);
    for (std::size_t i = s; i < e; ++i) hits[i].fetch_add(1);
    blocks.fetch_add(1);
  });
  EXPECT_EQ(blocks.load(), (n + bsize - 1) / bsize);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParDo, RunsBothThunks) {
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(ParDo, PropagatesException) {
  EXPECT_THROW(par_do([] { throw std::logic_error("left"); }, [] {}), std::logic_error);
}

TEST(Scheduler, SetNumWorkersChangesParallelism) {
  scheduler& s = scheduler::get();
  const int original = s.num_workers();
  s.set_num_workers(2);
  EXPECT_EQ(s.num_workers(), 2);
  // Both halves of a fork run, and the pool never has more than two
  // workers to run them on.
  std::atomic<int> hits{0};
  par_do([&] { hits.fetch_add(1); }, [&] { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 2);
  std::atomic<int> outside{0};
  parallel_for(0, 100000, [&](std::size_t) {
    const int id = scheduler::worker_id();
    if (id < 0 || id >= 2) outside.fetch_add(1);
  }, 1);
  EXPECT_EQ(outside.load(), 0);
  s.set_num_workers(original);
  EXPECT_EQ(s.num_workers(), original);
}

TEST(Scheduler, RejectsZeroWorkers) {
  EXPECT_THROW(scheduler::get().set_num_workers(0), std::invalid_argument);
}

}  // namespace
}  // namespace phch
