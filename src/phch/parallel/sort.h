// Parallel sorting: comparison sort (fork-join merge sort with parallel
// merges) and a stable LSD radix sort for bounded integer keys. Both are
// deterministic: every split point is a fixed function of the data, never
// of thread timing.
//
// The comparison sort recursively halves the input (par_do on the two
// halves, ping-ponging between the input and one scratch buffer), then
// merges the sorted halves with a divide-and-conquer merge that bisects the
// larger run and binary-searches the split point in the smaller one. Under
// the work-stealing scheduler every level of this recursion parallelizes,
// also when the sort itself runs inside another parallel construct.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "phch/parallel/parallel_for.h"
#include "phch/parallel/primitives.h"

namespace phch {

namespace detail {

inline constexpr std::size_t kSortSerialCutoff = 4096;
inline constexpr std::size_t kMergeSerialCutoff = 8192;

// Merges sorted runs [a0,a1) and [b0,b1) into out. Stable: ties take the
// a-side first (lower_bound on b for an a-pivot, upper_bound on a for a
// b-pivot keep equal elements on the correct side of each split).
template <typename T, typename Comp>
void parallel_merge(const T* a0, const T* a1, const T* b0, const T* b1, T* out,
                    Comp& comp) {
  const std::size_t na = static_cast<std::size_t>(a1 - a0);
  const std::size_t nb = static_cast<std::size_t>(b1 - b0);
  if (na + nb <= kMergeSerialCutoff) {
    std::merge(a0, a1, b0, b1, out, comp);
    return;
  }
  const T* am;
  const T* bm;
  if (na >= nb) {
    am = a0 + na / 2;
    bm = std::lower_bound(b0, b1, *am, comp);
  } else {
    bm = b0 + nb / 2;
    am = std::upper_bound(a0, a1, *bm, comp);
  }
  T* out_mid = out + (am - a0) + (bm - b0);
  par_do([&] { parallel_merge(a0, am, b0, bm, out, comp); },
         [&] { parallel_merge(am, a1, bm, b1, out_mid, comp); });
}

// Sorts in[0..n). The result lands in `in` when !to_tmp, in `tmp` when
// to_tmp; children produce their halves in the other buffer so the merge
// always moves data into the requested destination.
template <typename T, typename Comp>
void merge_sort_rec(T* in, T* tmp, std::size_t n, Comp& comp, bool to_tmp) {
  if (n <= kSortSerialCutoff) {
    std::sort(in, in + n, comp);
    if (to_tmp) std::copy(in, in + n, tmp);
    return;
  }
  const std::size_t mid = n / 2;
  par_do([&] { merge_sort_rec(in, tmp, mid, comp, !to_tmp); },
         [&] { merge_sort_rec(in + mid, tmp + mid, n - mid, comp, !to_tmp); });
  const T* src = to_tmp ? in : tmp;
  T* dst = to_tmp ? tmp : in;
  parallel_merge(src, src + mid, src + mid, src + n, dst, comp);
}

}  // namespace detail

template <typename T, typename Comp = std::less<T>>
void parallel_sort(std::vector<T>& a, Comp comp = Comp{}) {
  const std::size_t n = a.size();
  if (n <= detail::kSortSerialCutoff || num_workers() == 1) {
    std::sort(a.begin(), a.end(), comp);
    return;
  }
  std::vector<T> tmp(n);
  detail::merge_sort_rec(a.data(), tmp.data(), n, comp, /*to_tmp=*/false);
}

template <typename T, typename Comp = std::less<T>>
std::vector<T> sorted(std::vector<T> a, Comp comp = Comp{}) {
  parallel_sort(a, comp);
  return a;
}

// Stable LSD radix sort by key(x), an unsigned integer < 2^bits: one stable
// 8-bit counting pass, over blocks fixed by (n, p), per digit that varies
// across `a`. The passes ping-pong between `a` and one uninitialized scratch
// buffer (first touched by the parallel scatter); an odd count copies back.
template <typename T, typename Key>
void radix_sort(std::vector<T>& a, int bits, Key&& key) {
  constexpr int kRadixBits = 8;
  constexpr std::size_t kDigits = std::size_t{1} << kRadixBits;
  const std::size_t n = a.size();
  if (n < 2) return;
  const std::uint64_t k0 = key(a[0]);
  const std::uint64_t varying =
      reduce(std::size_t{1}, n, std::uint64_t{0}, std::bit_or<>{},
             [&](std::size_t i) { return key(a[i]) ^ k0; });
  const auto scratch = std::make_unique_for_overwrite<T[]>(n);
  const std::size_t bsize = n / detail::num_scan_blocks(n) + 1;
  const std::size_t num_blocks = (n + bsize - 1) / bsize;
  // counts[digit * num_blocks + block]: column-major so the serial scan
  // visits all blocks of digit 0, then digit 1, ... giving stability.
  std::vector<std::size_t> counts(kDigits * num_blocks);
  T* src = a.data();
  T* dst = scratch.get();
  for (int shift = 0; shift < bits; shift += kRadixBits) {
    if (((varying >> shift) & (kDigits - 1)) == 0) continue;
    auto digit = [&](const T& x) { return (std::uint64_t{key(x)} >> shift) & (kDigits - 1); };
    blocked_for(0, n, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
      std::array<std::size_t, kDigits> c{};
      for (std::size_t i = s; i < e; ++i) ++c[digit(src[i])];
      for (std::size_t d = 0; d < kDigits; ++d) counts[d * num_blocks + b] = c[d];
    });
    scan_add_inplace(counts);
    blocked_for(0, n, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
      std::array<std::size_t, kDigits> offsets;
      for (std::size_t d = 0; d < kDigits; ++d) offsets[d] = counts[d * num_blocks + b];
      for (std::size_t i = s; i < e; ++i) dst[offsets[digit(src[i])]++] = src[i];
    });
    std::swap(src, dst);
  }
  if (src != a.data()) parallel_for(0, n, [&](std::size_t i) { a[i] = src[i]; });
}

}  // namespace phch
