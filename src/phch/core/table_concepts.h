// Formal table concepts: the interfaces the wrappers, batch engine, stats,
// applications, and tests program against, replacing per-consumer duck
// typing. The layering is
//
//   probe_engine (policy-parameterized probing core)
//     └─ policies: prioritized / arrival order, back-shift delete
//          └─ wrapper: growable_table
//               └─ batch API (core/batch_ops.h), table_stats
//                    └─ apps / benches / tests
//
// and each upward edge is one of the concepts below. A new table joins the
// ecosystem by modeling the concepts it can support: `phase_table` makes the
// apps and test harness work, `open_addressing_table` adds stats and layout
// checks, and `block_table` turns on software-pipelined batching.
#pragma once

#include <concepts>
#include <cstddef>
#include <vector>

#include "phch/core/phase_runtime.h"
#include "phch/core/table_common.h"

namespace phch {

// The baseline phase-concurrent table contract: typed entries plus the
// paper's operation set { insert } / { find, contains, elements } (erase is
// split out into deletable_table because a delete phase is optional —
// e.g. serial or frozen reference tables need not support one).
// Callers owe the phase discipline of Definition 1.
template <typename T>
concept phase_table =
    requires {
      typename T::traits;
      typename T::value_type;
      typename T::key_type;
    } &&
    requires(T& t, const T& ct, typename T::value_type v, typename T::key_type k) {
      t.insert(v);
      { ct.find(k) } -> std::convertible_to<typename T::value_type>;
      { ct.contains(k) } -> std::convertible_to<bool>;
      { ct.capacity() } -> std::convertible_to<std::size_t>;
      { ct.count() } -> std::convertible_to<std::size_t>;
      { ct.elements() } -> std::convertible_to<std::vector<typename T::value_type>>;
    };

// A phase table whose delete phase exists.
template <typename T>
concept deletable_table = phase_table<T> && requires(T& t, typename T::key_type k) {
  t.erase(k);
};

// A table that exposes its phase_runtime (core/phase_runtime.h): the single
// per-table phase-state word (current operation class + monotone epoch).
// Every first-party phase-concurrent table models this; tools/phch_trace
// validates the exactly-once transition ledger through it.
template <typename T>
concept phase_epoch_table = requires(const T& ct) {
  { ct.phase_rt() } -> std::same_as<phase_runtime&>;
};

// A phase table backed by one flat slot array — what table_stats and the
// layout-equality tests scan.
template <typename T>
concept open_addressing_table = phase_table<T> && requires(const T& ct) {
  { ct.raw_slots() } -> std::convertible_to<const typename T::value_type*>;
};

// A table with the three serial block members the free batch functions
// drive (core/batch_ops.h): each runs n operations through the batch ring
// on the calling thread, inside one phase scope of its class. probe_engine (both ordering policies), cuckoo, hopscotch and
// chained tables model it.
template <typename T>
concept block_table =
    phase_table<T> &&
    requires(T& t, const T& ct, const typename T::value_type* vs,
             const typename T::key_type* ks, typename T::value_type* out,
             std::size_t n) {
      t.insert_block(vs, n);
      ct.find_block(ks, n, out);
      t.erase_block(ks, n);
    };

// A table with its own whole-batch operations, which the free batch
// functions forward to. growable_table is the one such table: its insert
// batch must interleave growth checks with the inserts. It is not a
// block_table on purpose: block inserts run inside blocked_for's parallel
// region, so every resync would migrate serially, and a prototype measured
// slower at 4 workers (DESIGN.md §9).
template <typename T>
concept batch_forwarding_table =
    requires(T& t, const T& ct, const typename T::value_type* vs, std::size_t n,
             const std::vector<typename T::key_type>& ks) {
      t.insert_batch(vs, n);
      { ct.find_batch(ks) } -> std::convertible_to<std::vector<typename T::value_type>>;
      t.erase_batch(ks);
    };

}  // namespace phch
