// Parallel sequence primitives: tabulate, map, reduce, scan (prefix sum),
// pack, filter, and helpers. These are the PBBS-style building blocks the
// paper's `elements()` routine and applications rely on ("a parallel prefix
// sum and cache-block friendly writes").
//
// All primitives are deterministic: block decompositions are fixed functions
// of (n, block count), never of thread timing.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "phch/parallel/parallel_for.h"

namespace phch {

namespace detail {
// Deterministic block count for two-pass algorithms: enough blocks for load
// balance, few enough that the serial block-level scan is negligible.
inline std::size_t num_scan_blocks(std::size_t n) {
  const std::size_t p = static_cast<std::size_t>(num_workers());
  std::size_t blocks = p * kDefaultGrainTarget;
  const std::size_t max_blocks = n / 2048 + 1;
  if (blocks > max_blocks) blocks = max_blocks;
  return blocks < 1 ? 1 : blocks;
}
}  // namespace detail

// Returns {f(0), f(1), ..., f(n-1)}.
template <typename F>
auto tabulate(std::size_t n, F&& f) {
  using T = std::decay_t<decltype(f(std::size_t{0}))>;
  std::vector<T> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

// Returns {f(in[0]), ..., f(in[n-1])}.
template <typename T, typename F>
auto map(const std::vector<T>& in, F&& f) {
  return tabulate(in.size(), [&](std::size_t i) { return f(in[i]); });
}

// Reduction of f(lo..hi) under an associative op with identity.
template <typename T, typename F, typename Op>
T reduce(std::size_t lo, std::size_t hi, T identity, Op op, F&& f) {
  if (hi <= lo) return identity;
  const std::size_t bsize = (hi - lo) / detail::num_scan_blocks(hi - lo) + 1;
  const std::size_t num_blocks = (hi - lo + bsize - 1) / bsize;
  std::vector<T> sums(num_blocks, identity);
  blocked_for(lo, hi, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
    T acc = identity;
    for (std::size_t i = s; i < e; ++i) acc = op(acc, f(i));
    sums[b] = acc;
  });
  T total = identity;
  for (const T& s : sums) total = op(total, s);
  return total;
}

template <typename T>
T reduce_add(const std::vector<T>& in) {
  return reduce(std::size_t{0}, in.size(), T{}, std::plus<T>{},
                [&](std::size_t i) { return in[i]; });
}

// Exclusive prefix sum of `a` in place under (op, identity); returns the
// grand total. Two-pass blocked algorithm.
template <typename T, typename Op>
T scan_inplace(std::vector<T>& a, Op op, T identity) {
  const std::size_t n = a.size();
  if (n == 0) return identity;
  const std::size_t bsize = n / detail::num_scan_blocks(n) + 1;
  const std::size_t num_blocks = (n + bsize - 1) / bsize;
  std::vector<T> sums(num_blocks);
  blocked_for(0, n, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
    T acc = identity;
    for (std::size_t i = s; i < e; ++i) acc = op(acc, a[i]);
    sums[b] = acc;
  });
  T total = identity;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const T next = op(total, sums[b]);
    sums[b] = total;
    total = next;
  }
  blocked_for(0, n, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
    T acc = sums[b];
    for (std::size_t i = s; i < e; ++i) {
      const T next = op(acc, a[i]);
      a[i] = acc;
      acc = next;
    }
  });
  return total;
}

template <typename T>
T scan_add_inplace(std::vector<T>& a) {
  return scan_inplace(a, std::plus<T>{}, T{});
}

// Stable pack: returns get(i) for each i in [0, n) with keep(i) true, in
// index order. This is exactly the paper's ELEMENTS() skeleton: count per
// block, prefix-sum the counts, then copy with cache-friendly writes. The
// copy stores get(i) for every i, so get must be cheap and valid on [0, n).
template <typename Keep, typename Get>
auto pack(std::size_t n, Keep&& keep, Get&& get) {
  using T = std::decay_t<decltype(get(std::size_t{0}))>;
  if (n == 0) return std::vector<T>{};
  const std::size_t bsize = n / detail::num_scan_blocks(n) + 1;
  const std::size_t num_blocks = (n + bsize - 1) / bsize;
  std::vector<std::size_t> counts(num_blocks);
  blocked_for(0, n, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
    std::size_t c = 0;
    for (std::size_t i = s; i < e; ++i) c += keep(i) ? 1 : 0;
    counts[b] = c;
  });
  const std::size_t total = scan_add_inplace(counts);
  std::vector<T> out(total);
  blocked_for(0, n, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
    T* o = out.data() + counts[b];
    T* const end = out.data() + (b + 1 < num_blocks ? counts[b + 1] : total);
    for (std::size_t i = s; i < e && o != end; ++i) {
      *o = get(i);
      o += keep(i) ? 1 : 0;
    }
  });
  return out;
}

// Stable filter of a vector by predicate on elements.
template <typename T, typename Pred>
std::vector<T> filter(const std::vector<T>& in, Pred&& pred) {
  return pack(
      in.size(), [&](std::size_t i) { return pred(in[i]); },
      [&](std::size_t i) { return in[i]; });
}

// Indices i in [0, n) where flag(i) holds, ascending.
template <typename Flag>
std::vector<std::size_t> pack_index(std::size_t n, Flag&& flag) {
  return pack(
      n, [&](std::size_t i) { return flag(i); }, [](std::size_t i) { return i; });
}

// iota
inline std::vector<std::size_t> iota(std::size_t n) {
  return tabulate(n, [](std::size_t i) { return i; });
}

}  // namespace phch
