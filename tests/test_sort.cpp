// parallel_sort and radix_sort against std::sort / std::stable_sort references.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "phch/parallel/sort.h"
#include "phch/utils/rand.h"

namespace phch {
namespace {

class SortSweep : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, SortSweep,
                         ::testing::Values(0, 1, 2, 100, 4095, 4096, 4097, 50000, 300000));

TEST_P(SortSweep, MatchesStdSort) {
  const std::size_t n = GetParam();
  auto v = tabulate(n, [](std::size_t i) { return hash64(i); });
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_sort(v);
  EXPECT_EQ(v, expected);
}

TEST_P(SortSweep, CustomComparator) {
  const std::size_t n = GetParam();
  auto v = tabulate(n, [](std::size_t i) { return hash64(i) % 1000; });
  auto expected = v;
  std::sort(expected.begin(), expected.end(), std::greater<>{});
  parallel_sort(v, std::greater<>{});
  EXPECT_EQ(v, expected);
}

TEST(Sort, AlreadySortedAndReversed) {
  auto inc = iota(100000);
  auto v = inc;
  parallel_sort(v);
  EXPECT_EQ(v, inc);
  std::vector<std::size_t> rev(inc.rbegin(), inc.rend());
  parallel_sort(rev);
  EXPECT_EQ(rev, inc);
}

TEST(Sort, AllEqualKeys) {
  std::vector<int> v(50000, 7);
  parallel_sort(v);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](int x) { return x == 7; }));
}

struct keyed {
  std::uint64_t key;
  std::uint32_t seq;
  bool operator==(const keyed&) const = default;
};

// Radix-sorts v by x.key with `bits` and checks the result, in v's own
// buffer, against std::stable_sort.
void expect_stable_radix_sort(std::vector<keyed> v, int bits) {
  auto expected = v;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const keyed& a, const keyed& b) { return a.key < b.key; });
  const keyed* before = v.data();
  radix_sort(v, bits, [](const keyed& x) { return x.key; });
  EXPECT_EQ(v.data(), before);
  EXPECT_EQ(v, expected);
}

// Sequence numbers in input order, so stability shows in the output.
template <typename Key>
std::vector<keyed> records(std::size_t n, Key&& key) {
  return tabulate(n, [&](std::size_t i) { return keyed{key(i), static_cast<std::uint32_t>(i)}; });
}

// One 8-bit digit: a single counting-sort pass.
TEST(CountingSort, StableAndCorrect) {
  expect_stable_radix_sort(records(100000, [](std::size_t i) { return hash64(i) % 64; }), 6);
}

TEST(RadixSort, SkipsDigitsThatDoNotVary) {
  // Only bits 0-7 and 40-47 vary, so two of the eight digits get a pass.
  expect_stable_radix_sort(records(100000,
                                   [](std::size_t i) {
                                     const std::uint64_t h = hash64(i);
                                     return (h & 0xff) | (h & 0xff0000000000ULL) |
                                            0x0300000000001100ULL;
                                   }),
                           64);
}

TEST(RadixSort, OddAndEvenPassCountsLeaveTheResultInPlace) {
  for (int digits = 1; digits <= 4; ++digits) {
    const std::uint64_t mask = (std::uint64_t{1} << (8 * digits)) - 1;
    expect_stable_radix_sort(
        records(50000, [mask](std::size_t i) { return hash64(i) & mask; }), 64);
  }
}

TEST(RadixSort, TinyInputs) {
  expect_stable_radix_sort({}, 64);
  expect_stable_radix_sort({{5, 0}}, 64);
  expect_stable_radix_sort({{9, 0}, {3, 1}}, 64);
  expect_stable_radix_sort({{3, 0}, {3, 1}}, 64);
}

TEST(RadixSort, AllEqualKeysKeepInputOrder) {
  expect_stable_radix_sort(records(20000, [](std::size_t) { return 0xabcdULL; }), 64);
}

TEST(RadixSort, FullWidth64BitKeys) {
  auto v = tabulate(200000, [](std::size_t i) { return hash64(i); });
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  radix_sort(v, 64, [](std::uint64_t x) { return x; });
  EXPECT_EQ(v, expected);
}

TEST(RadixSort, PartialWidthSortsByLowBits) {
  struct rec {
    std::uint32_t key;
    std::uint32_t payload;
    bool operator==(const rec&) const = default;
  };
  auto v = tabulate(50000, [](std::size_t i) {
    return rec{static_cast<std::uint32_t>(hash64(i)), static_cast<std::uint32_t>(i)};
  });
  auto expected = v;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const rec& a, const rec& b) { return a.key < b.key; });
  radix_sort(v, 32, [](const rec& x) { return x.key; });
  EXPECT_EQ(v, expected);
}

TEST(Sort, SortedHelperReturnsSortedCopy) {
  const auto v = tabulate(10000, [](std::size_t i) { return hash64(i) % 500; });
  const auto s = sorted(v);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_EQ(s.size(), v.size());
}

}  // namespace
}  // namespace phch
