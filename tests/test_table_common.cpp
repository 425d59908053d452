// Shared table helpers: round_up_pow2 overflow behavior, aligned slot
// storage, and the serial short-circuit in slot_array::clear().
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "phch/core/entry_traits.h"
#include "phch/core/table_common.h"

namespace phch {
namespace {

TEST(RoundUpPow2, SmallValues) {
  EXPECT_EQ(round_up_pow2(0), 1u);
  EXPECT_EQ(round_up_pow2(1), 1u);
  EXPECT_EQ(round_up_pow2(2), 2u);
  EXPECT_EQ(round_up_pow2(3), 4u);
  EXPECT_EQ(round_up_pow2(4), 4u);
  EXPECT_EQ(round_up_pow2(5), 8u);
  EXPECT_EQ(round_up_pow2(1000), 1024u);
  EXPECT_EQ(round_up_pow2(1 << 20), std::size_t{1} << 20);
  EXPECT_EQ(round_up_pow2((1 << 20) + 1), std::size_t{1} << 21);
}

TEST(RoundUpPow2, LargestRepresentablePowerOfTwoIsAccepted) {
  constexpr std::size_t max_pow2 =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_EQ(round_up_pow2(max_pow2), max_pow2);
  EXPECT_EQ(round_up_pow2(max_pow2 - 1), max_pow2);
}

TEST(RoundUpPow2, OverflowingRequestsThrowInsteadOfLoopingForever) {
  constexpr std::size_t max_pow2 =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_THROW(round_up_pow2(max_pow2 + 1), std::length_error);
  EXPECT_THROW(round_up_pow2(std::numeric_limits<std::size_t>::max()),
               std::length_error);
}

TEST(SlotArray, StorageIsCacheLineAligned) {
  slot_array<int_entry<>> small(2);
  slot_array<int_entry<>> big(1 << 15);
  slot_array<pair_entry<>> pairs(1 << 10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pairs.data()) % 64, 0u);
  // Arrays of 2 MB or more are huge-page aligned (whether the host backs
  // them with huge pages is its own setting) and clear to empty.
  slot_array<pair_entry<>> huge(kHugePageBytes / sizeof(pair_entry<>::value_type));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(huge.data()) % kHugePageBytes, 0u);
  EXPECT_EQ(huge.count(), 0u);
  for (std::size_t i = 0; i < huge.capacity(); i += 4096) huge[i] = {i + 1, i};
  EXPECT_EQ(huge.count(), huge.capacity() / 4096);
  huge.clear();
  EXPECT_EQ(huge.count(), 0u);
}

TEST(SlotArray, ClearResetsEverySlotAtBothSidesOfTheSerialThreshold) {
  // Below the threshold clear() runs serially, above it in parallel; both
  // must leave every slot empty.
  constexpr std::size_t kSerialSlots = kSerialClearBytes / sizeof(int_entry<>::value_type);
  for (const std::size_t cap : {std::size_t{64}, kSerialSlots / 2, kSerialSlots}) {
    slot_array<int_entry<>> a(cap);
    for (std::size_t i = 0; i < a.capacity(); ++i) a[i] = i + 1;
    EXPECT_EQ(a.count(), a.capacity());
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    for (std::size_t i = 0; i < a.capacity(); ++i) {
      ASSERT_TRUE(int_entry<>::is_empty(a[i]));
    }
  }
}

}  // namespace
}  // namespace phch
