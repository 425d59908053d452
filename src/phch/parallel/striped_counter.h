// Contention-free striped counter for hot-path counting. No table keeps
// one any more; its user is phasebench's `counter` rung, which measures
// what the occupancy counter the tables once kept cost per operation.
//
// A single shared std::atomic counter serializes every increment on one
// cache line: under concurrent inserts the fetch_add ping-pongs the line
// between cores and becomes the table's dominant contention point (Maier et
// al., "Concurrent Hash Tables: Fast and General(?)!"). This counter stripes
// the count across cache-line-padded cells, one per scheduler worker, so the
// hot path is an uncontended fetch_add on the caller's own line.
//
// Exactness contract (matches the tables' phase discipline): each add() is
// recorded exactly once in exactly one stripe, so sum() over a quiescent
// counter — e.g. at a phase boundary — is exact. A sum() taken *during* a
// phase is approximate in the same way a relaxed global counter was: it can
// miss in-flight updates, never invent them. Stripes are signed because an
// erase may decrement from a different stripe than the insert that
// incremented (per-stripe values can go negative; the sum cannot, at a
// boundary).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "phch/parallel/scheduler.h"

namespace phch {

class striped_counter {
 public:
  striped_counter() : cells_(stripe_count()) {}

  // Uncontended under the scheduler: each pool worker owns one padded cell.
  void add(std::int64_t delta) noexcept {
    cells_[stripe_index() & (cells_.size() - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  void decrement() noexcept { add(-1); }

  // Lazy sum over the stripes: exact at a phase boundary (see header
  // comment), approximate mid-phase. O(#stripes) relaxed loads.
  std::int64_t sum() const noexcept {
    std::int64_t total = 0;
    for (const cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) cell {
    std::atomic<std::int64_t> v{0};
  };

  // Power-of-two stripe count covering the worker pool (capped: beyond 64
  // stripes the lazy sum() cost outweighs any contention left to remove).
  static std::size_t stripe_count() {
    const std::size_t p = static_cast<std::size_t>(num_workers());
    std::size_t c = 1;
    while (c < p && c < 64) c <<= 1;
    return c;
  }

  // Pool workers map to their own stripe; foreign threads (user threads
  // driving table ops directly) get a stable per-thread stripe from a
  // round-robin ticket, masked into range by the caller.
  static std::size_t stripe_index() noexcept {
    const int w = scheduler::worker_id();
    if (w >= 0) return static_cast<std::size_t>(w);
    static std::atomic<std::size_t> tickets{0};
    thread_local const std::size_t mine =
        tickets.fetch_add(1, std::memory_order_relaxed);
    return mine;
  }

  std::vector<cell> cells_;
};

}  // namespace phch
