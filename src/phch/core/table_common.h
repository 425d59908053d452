// Shared helpers for the hash table implementations.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "phch/parallel/parallel_for.h"
#include "phch/parallel/primitives.h"

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

namespace phch {

// Thrown when an operation cannot complete because the table has no room
// (the paper's algorithms require a non-full table to terminate).
struct table_full_error : std::runtime_error {
  table_full_error() : std::runtime_error("phch: hash table is full") {}
};

// Smallest power of two >= n, via the single-instruction std::bit_ceil.
// Requests above the largest representable power of two are rejected
// (bit_ceil on such values is undefined, and the pre-bit_ceil shift loop
// spun forever once `c <<= 1` overflowed to zero).
inline std::size_t round_up_pow2(std::size_t n) {
  constexpr std::size_t k_max_pow2 =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  if (n > k_max_pow2) {
    throw std::length_error("phch: requested capacity exceeds the largest "
                            "representable power of two");
  }
  return std::bit_ceil(n);
}

// Bitwise equality for trivially-copyable slot values (kv64 and friends have
// no padding; pointers and integers trivially qualify).
template <typename T>
inline bool bits_equal(const T& a, const T& b) noexcept {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// Slot arrays below this many bytes clear serially: at 4 workers a root
// parallel_for cost more than the serial fill up to ~1 MB (EXPERIMENTS.md).
inline constexpr std::size_t kSerialClearBytes = std::size_t{1} << 20;

// Slot arrays of at least this many bytes are placed on 2 MB pages.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

// A power-of-two-sized slot array initialized to the traits' empty value.
// All tables build on this. Storage is 64-byte aligned so a slot never
// straddles a cache line and the batch engine's per-slot prefetches map
// one-to-one onto lines. Arrays of kHugePageBytes or more are 2 MB-aligned
// and advised as transparent huge pages before clear() first touches them:
// probes land at random, and on 4 KB pages most of them would also miss the
// TLB. The advice is best-effort — where THP is disabled the array simply
// stays on small pages.
template <typename Traits>
class slot_array {
 public:
  using value_type = typename Traits::value_type;
  static_assert(std::is_trivially_copyable_v<value_type> &&
                    std::is_trivially_destructible_v<value_type>,
                "slot values must be CAS-able raw words");

  explicit slot_array(std::size_t min_capacity)
      : capacity_(round_up_pow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(capacity_ - 1),
        slots_(allocate(capacity_ * sizeof(value_type))) {
    clear();
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t mask() const noexcept { return mask_; }

  value_type* data() noexcept { return slots_.get(); }
  const value_type* data() const noexcept { return slots_.get(); }

  value_type& operator[](std::size_t i) noexcept { return slots_[i]; }
  const value_type& operator[](std::size_t i) const noexcept { return slots_[i]; }

  void clear() {
    if (capacity_ * sizeof(value_type) < kSerialClearBytes) {
      for (std::size_t i = 0; i < capacity_; ++i) slots_[i] = Traits::empty();
      return;
    }
    parallel_for(0, capacity_, [&](std::size_t i) { slots_[i] = Traits::empty(); });
  }

  // Number of occupied slots (parallel count).
  std::size_t count() const {
    return reduce(std::size_t{0}, capacity_, std::size_t{0}, std::plus<std::size_t>{},
                  [&](std::size_t i) {
                    return Traits::is_empty(slots_[i]) ? std::size_t{0} : std::size_t{1};
                  });
  }

  // Packs the occupied slots into a contiguous array in slot order — the
  // paper's ELEMENTS(), the one implementation behind every open-addressing
  // table's elements() (prefix sum over per-block counts plus
  // cache-block-friendly writes).
  std::vector<value_type> elements() const {
    const value_type* s = data();
    return pack(
        capacity_, [s](std::size_t i) { return !Traits::is_empty(s[i]); },
        [s](std::size_t i) { return s[i]; });
  }

 private:
  // Carries the alignment the array was allocated with, as aligned delete
  // requires.
  struct aligned_delete {
    std::align_val_t align;
    void operator()(value_type* p) const noexcept {
      ::operator delete(static_cast<void*>(p), align);
    }
  };
  using storage = std::unique_ptr<value_type[], aligned_delete>;

  static storage allocate(std::size_t bytes) {
    const bool huge = bytes >= kHugePageBytes;
    const std::align_val_t align{huge ? kHugePageBytes : 64};
    void* p = ::operator new(bytes, align);
#ifdef MADV_HUGEPAGE
    if (huge) (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
    return storage(static_cast<value_type*>(p), aligned_delete{align});
  }

  std::size_t capacity_;
  std::size_t mask_;
  storage slots_;
};

}  // namespace phch
