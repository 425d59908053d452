// Shared helpers for the hash table test suites.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "phch/core/entry_traits.h"
#include "phch/core/phase_runtime.h"
#include "phch/core/table_concepts.h"
#include "phch/parallel/parallel_for.h"
#include "phch/utils/rand.h"

namespace phch::test {

// Verifies the paper's ordering invariant (Definition 2) on a raw slot
// array: for every occupied slot j holding v, every slot on the probe path
// from home(v) to j holds a key of priority >= v.
template <typename Traits>
bool ordering_invariant_holds(const typename Traits::value_type* slots,
                              std::size_t capacity) {
  const std::size_t mask = capacity - 1;
  for (std::size_t j = 0; j < capacity; ++j) {
    const auto v = slots[j];
    if (Traits::is_empty(v)) continue;
    const std::size_t hv = Traits::hash(Traits::key(v)) & mask;
    for (std::size_t k = hv; k != j; k = (k + 1) & mask) {
      const auto c = slots[k];
      if (Traits::is_empty(c)) return false;  // a hole inside the probe path
      if (Traits::priority_less(Traits::key(c), Traits::key(v))) return false;
    }
  }
  return true;
}

// int_entry whose hash runs a one-shot hook when it hashes `trigger`: a
// test starts a conflicting operation, or throws, from inside a table
// operation. Only the thread that hashes the trigger reads `hook`. The hash
// is not noexcept, so a hook may throw.
struct hooked_entry : int_entry<> {
  static inline std::uint64_t trigger = 0;
  static inline std::function<void()> hook;
  static std::uint64_t hash(std::uint64_t k) {
    if (k == trigger && hook) std::exchange(hook, nullptr)();
    return int_entry<>::hash(k);
  }
};

// int_entry that counts its hash calls, for tests that pin how many times
// an operation hashes a key.
struct counting_entry : int_entry<> {
  static inline std::atomic<std::uint64_t> hashes{0};
  static std::uint64_t hash(std::uint64_t k) noexcept {
    hashes.fetch_add(1, std::memory_order_relaxed);
    return int_entry<>::hash(k);
  }
};

// A phase-violation handler that counts reports and keeps the last one,
// for tests that intercept reports in-process instead of aborting. Only
// one thread may report while it is installed (`last` is a plain copy).
struct violation_capture {
  static inline std::atomic<int> calls{0};
  static inline phase_violation last;
  static void capture(const phase_violation& v) {
    last = v;
    calls.fetch_add(1, std::memory_order_relaxed);
  }
};

// Distinct keys in [1, limit), deterministic.
inline std::vector<std::uint64_t> unique_keys(std::size_t n, std::uint64_t seed = 1) {
  std::set<std::uint64_t> s;
  std::uint64_t i = 0;
  while (s.size() < n) s.insert(1 + phch::hash64(seed * 1000003 + i++) % (8 * n + 16));
  return {s.begin(), s.end()};
}

// Keys with duplicates, deterministic.
inline std::vector<std::uint64_t> dup_keys(std::size_t n, std::size_t distinct,
                                           std::uint64_t seed = 1) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 1 + phch::hash64(seed ^ i) % (distinct ? distinct : 1);
  return v;
}

// Deterministic permutation.
template <typename T>
std::vector<T> shuffled(std::vector<T> v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[phch::hash64(seed ^ i) % i]);
  }
  return v;
}

// Inserts keys into the table from a parallel loop (one insert phase).
template <phch::phase_table Table, typename Seq>
void parallel_insert(Table& t, const Seq& keys) {
  phch::parallel_for(0, keys.size(), [&](std::size_t i) { t.insert(keys[i]); });
}

// One erase phase.
template <phch::deletable_table Table, typename Seq>
void parallel_erase(Table& t, const Seq& keys) {
  phch::parallel_for(0, keys.size(), [&](std::size_t i) { t.erase(keys[i]); });
}

// The scalar reference for find_block: a plain per-op lookup loop, no
// prefetching (parallel_insert / parallel_erase are the insert and erase
// references).
template <typename Table, typename K>
std::vector<typename Table::value_type> find_batch_scalar(
    const Table& t, const std::vector<K>& keys) {
  std::vector<typename Table::value_type> out(keys.size());
  phch::parallel_for(0, keys.size(), [&](std::size_t i) { out[i] = t.find(keys[i]); });
  return out;
}

}  // namespace phch::test
