// Sequence primitives: tabulate/map/reduce/scan/pack/filter determinism and
// correctness against sequential references, across a size sweep.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <vector>

#include "phch/parallel/primitives.h"
#include "phch/utils/rand.h"

namespace phch {
namespace {

class PrimitivesSweep : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, PrimitivesSweep,
                         ::testing::Values(0, 1, 2, 7, 100, 1023, 4096, 100001));

TEST_P(PrimitivesSweep, TabulateMatchesFormula) {
  const std::size_t n = GetParam();
  const auto v = tabulate(n, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(v.size(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(v[i], 3 * i + 1);
}

TEST_P(PrimitivesSweep, ReduceAddMatchesAccumulate) {
  const std::size_t n = GetParam();
  const auto v = tabulate(n, [](std::size_t i) { return hash64(i) % 1000; });
  const auto expected = std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  EXPECT_EQ(reduce_add(v), expected);
}

TEST_P(PrimitivesSweep, ExclusiveScanMatchesSequential) {
  const std::size_t n = GetParam();
  auto v = tabulate(n, [](std::size_t i) { return hash64(i) % 100; });
  std::vector<std::uint64_t> expected(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = acc;
    acc += v[i];
  }
  const std::uint64_t total = scan_add_inplace(v);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(v, expected);
}

TEST_P(PrimitivesSweep, PackKeepsOrderAndSelection) {
  const std::size_t n = GetParam();
  // Random, all, none, sparse (most blocks keep nothing) and a prefix (the
  // later blocks keep nothing, the earlier ones everything).
  const std::function<bool(std::size_t)> keeps[] = {
      [](std::size_t i) { return hash64(i) % 3 == 0; },
      [](std::size_t) { return true; },
      [](std::size_t) { return false; },
      [](std::size_t i) { return i % 5000 == 17; },
      [n](std::size_t i) { return i < n / 2; }};
  for (const auto& keep : keeps) {
    const auto out = pack(n, keep, [](std::size_t i) { return i; });
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i)
      if (keep(i)) expected.push_back(i);
    EXPECT_EQ(out, expected);
  }
}

TEST_P(PrimitivesSweep, FilterMatchesStdCopyIf) {
  const std::size_t n = GetParam();
  const auto v = tabulate(n, [](std::size_t i) { return hash64(i) % 1000; });
  const auto out = filter(v, [](std::uint64_t x) { return x % 2 == 0; });
  std::vector<std::uint64_t> expected;
  std::copy_if(v.begin(), v.end(), std::back_inserter(expected),
               [](std::uint64_t x) { return x % 2 == 0; });
  EXPECT_EQ(out, expected);
}

TEST(Primitives, ScanWithCustomMonoid) {
  auto v = tabulate(1000, [](std::size_t i) { return hash64(i) % 97 + 1; });
  const auto expected_total =
      std::accumulate(v.begin(), v.end(), std::uint64_t{1},
                      [](std::uint64_t a, std::uint64_t b) { return a * b % 1000003; });
  const auto total = scan_inplace(
      v, [](std::uint64_t a, std::uint64_t b) { return a * b % 1000003; },
      std::uint64_t{1});
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(v[0], 1u);  // exclusive scan starts with the identity
}

TEST(Primitives, PackIndexReturnsSortedMatchingIndices) {
  const auto idx = pack_index(1000, [](std::size_t i) { return i % 7 == 0; });
  ASSERT_FALSE(idx.empty());
  for (std::size_t j = 0; j < idx.size(); ++j) EXPECT_EQ(idx[j], 7 * j);
}

TEST(Primitives, MapAppliesFunction) {
  const auto v = iota(100);
  const auto sq = map(v, [](std::size_t x) { return x * x; });
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(sq[i], i * i);
}

TEST(Primitives, ReduceWithMaxMonoid) {
  const auto m = reduce(std::size_t{0}, std::size_t{100000}, std::uint64_t{0},
                        [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); },
                        [](std::size_t i) { return hash64(i) % 1234567; });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < 100000; ++i) expected = std::max(expected, hash64(i) % 1234567);
  EXPECT_EQ(m, expected);
}

TEST(Primitives, DeterministicAcrossRepeats) {
  // Two runs of the same parallel pack produce identical results: the block
  // decomposition is a function of (n, workers), not timing.
  const std::size_t n = 250000;
  const auto a = pack(n, [](std::size_t i) { return hash64(i) & 1; },
                      [](std::size_t i) { return hash64(i); });
  const auto b = pack(n, [](std::size_t i) { return hash64(i) & 1; },
                      [](std::size_t i) { return hash64(i); });
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace phch
