// The headline property as a parameterized matrix: for every combination of
// (thread count, table size, duplication rate, operation mix), the
// deterministic table's elements() — and the full slot layout — equal an
// independent reference, serialHash-HI (the Blelloch–Golovin serial table)
// fed every insert and then every erase. A bug the parallel table shared
// with itself at one worker would pass a self-replay; it cannot pass this.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "phch/core/deterministic_table.h"
#include "phch/core/serial_table.h"
#include "phch/parallel/scheduler.h"
#include "table_test_util.h"

namespace phch {
namespace {

// (threads, log2 capacity, distinct-key divisor, delete fraction %)
using matrix_param = std::tuple<int, int, int, int>;

class DeterminismMatrix : public ::testing::TestWithParam<matrix_param> {
 protected:
  static serial_table_hi<int_entry<>> reference_run(const std::vector<std::uint64_t>& ins,
                                                     const std::vector<std::uint64_t>& del,
                                                     std::size_t cap) {
    serial_table_hi<int_entry<>> ref(cap);
    for (const auto k : ins) ref.insert(k);
    for (const auto k : del) ref.erase(k);
    return ref;
  }
};

TEST_P(DeterminismMatrix, ParallelRunEqualsSerialReference) {
  const auto [threads, lg_cap, dup_div, del_pct] = GetParam();
  const std::size_t cap = std::size_t{1} << lg_cap;
  const std::size_t n = cap / 2;  // 50% nominal load
  const auto ins = test::dup_keys(n, n / static_cast<std::size_t>(dup_div) + 1, 77);
  const std::vector<std::uint64_t> del(
      ins.begin(), ins.begin() + static_cast<std::ptrdiff_t>(n * static_cast<std::size_t>(del_pct) / 100));
  const auto ref = reference_run(ins, del, cap);

  scheduler& sched = scheduler::get();
  const int original = sched.num_workers();
  sched.set_num_workers(threads);
  deterministic_table<int_entry<>> t(cap);
  test::parallel_insert(t, test::shuffled(ins, static_cast<std::uint64_t>(threads)));
  test::parallel_erase(t, test::shuffled(del, static_cast<std::uint64_t>(threads) + 50));
  const auto got = t.elements();
  sched.set_num_workers(original);

  ASSERT_EQ(got, ref.elements()) << "threads=" << threads << " cap=2^" << lg_cap
                                 << " dup=1/" << dup_div << " del=" << del_pct << "%";
  ASSERT_EQ(t.capacity(), ref.capacity());
  for (std::size_t s = 0; s < t.capacity(); ++s) {
    ASSERT_EQ(t.raw_slots()[s], ref.raw_slots()[s]) << "slot " << s;
  }
}

std::string matrix_name(const ::testing::TestParamInfo<matrix_param>& info) {
  return "t" + std::to_string(std::get<0>(info.param)) + "_cap" +
         std::to_string(std::get<1>(info.param)) + "_dup" +
         std::to_string(std::get<2>(info.param)) + "_del" +
         std::to_string(std::get<3>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeterminismMatrix,
    ::testing::Combine(::testing::Values(2, 4, 8),          // threads
                       ::testing::Values(8, 12, 14),        // log2 capacity
                       ::testing::Values(1, 4, 64),         // duplication divisor
                       ::testing::Values(0, 40, 100)),      // delete fraction %
    matrix_name);

}  // namespace
}  // namespace phch
