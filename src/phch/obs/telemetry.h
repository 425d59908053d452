// Operational telemetry: one per-thread stripe of event counters and the
// probe-depth histogram, and the one snapshot that reads them.
//
// The paper's whole evaluation is narrated through probe lengths, CAS
// traffic, and scalability, but table_stats can only measure those offline
// (it walks a quiesced slot array). This layer counts what the *live*
// system does — probe slot loads, CAS attempts and failures, batch-lane
// rotations and block handoffs, steals and backoff sleeps, growth
// migrations, phase transitions — and how deep each linear probe went:
//
//  * One switch. The whole subsystem exists only when the CMake option
//    PHCH_TELEMETRY is ON (which defines PHCH_TELEMETRY=1; obs/histogram.h
//    turns it into PHCH_TELEMETRY_ENABLED). When it is OFF (the default)
//    every entry point below compiles to an empty inline no-op,
//    instrumented classes carry no extra members (tests/test_telemetry.cpp
//    asserts this by object size), and a scalar op's op_tally is a
//    trivially destructible struct of dead stores — the hot paths' object
//    code is the pre-telemetry code. When it is ON, every event is
//    recorded; there is no runtime switch.
//  * One stripe per thread: 64 cache-line-aligned stripes, one per
//    scheduler worker (foreign threads get a ticket), like
//    parallel/striped_counter.h. A stripe holds every counter plus the
//    probe-depth histogram's buckets, sum and max; the hot path is relaxed
//    fetch_adds on the caller's own stripe. Sums over stripes are exact at
//    a quiescent point (a phase boundary) and approximate mid-phase.
//  * One record per op: a scalar linear-probing op declares one op_tally
//    and flushes it to its stripe once (below).
//
// The one snapshot (metrics_snapshot: every counter plus the probe-depth
// histogram) is taken by snapshot() at a quiescent point (Definition 1's
// phase boundaries); marks (obs/trace.h) store one, the exporters
// (obs/export.h) serialize one, and the difference of two is the exact
// per-phase delta. This header depends only on obs/histogram.h (so
// phase_runtime.h and the scheduler can include it without cycles).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "phch/obs/histogram.h"

namespace phch::obs {

// True when the layer is compiled in (CMake -DPHCH_TELEMETRY=ON).
inline constexpr bool compiled = PHCH_TELEMETRY_ENABLED == 1;

// Everything the runtime counts. Kept flat and dense so a snapshot is one
// small array and the JSON exporter can enumerate mechanically.
enum class counter : std::uint8_t {
  // probe_engine scalar loops (block inserts and erases run them too).
  probe_slots,       // slot loads performed by scalar probe loops
  cas_attempts,      // CASes issued by insert/erase paths
  cas_failures,      // CASes that lost to a concurrent operation
  insert_ops,        // insert operations started (one per logical insert)
  insert_commits,    // inserts that claimed an empty slot (new element)
  insert_dups,       // inserts resolved against an existing key (merge/no-op)
  insert_aborts,     // cuckoo/hopscotch inserts that gave up on a full table
  erase_ops,         // erase operations started
  erase_hits,        // erases that actually removed a live element
  find_ops,          // finds started (scalar or pipelined)
  find_hits,         // finds that returned a stored value
  // core/batch_ops.h ring engines.
  batch_probe_slots, // slot/bucket inspections by the find_block rings
  batch_rotations,   // ring-lane rotations (one per ring step)
  batch_handoffs,    // ops run_handoff_block ran as scalar ops from a prefetch
  batch_blocks,      // ring blocks executed
  // parallel/scheduler.cpp.
  steals,            // tasks stolen from another worker's deque
  steal_failures,    // full victim sweeps that found nothing
  backoff_sleeps,    // idle workers entering the 1 ms deep-idle sleep
  // core/growable_table.h.
  growths,           // capacity doublings (migrations)
  migrated_elements, // elements re-inserted by migrations
  // sparse-family structural events (cuckoo/hopscotch/chained tables).
  cuckoo_evictions,        // eviction-chain steps (one per displaced victim)
  hopscotch_displacements, // displace() moves bringing the hole toward home
  chained_chain_links,     // chain nodes walked by finds and batch walks
  // core/phase_runtime.h transition edge.
  phase_transitions, // per-table operation-class changes (insert->query, ...)
  kCount
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(counter::kCount);

inline const char* counter_name(counter c) noexcept {
  static constexpr const char* names[kNumCounters] = {
      "probe_slots",       "cas_attempts",  "cas_failures",   "insert_ops",
      "insert_commits",    "insert_dups",   "insert_aborts",  "erase_ops",
      "erase_hits",        "find_ops",      "find_hits",      "batch_probe_slots",
      "batch_rotations",   "batch_handoffs", "batch_blocks",   "steals",
      "steal_failures",    "backoff_sleeps", "growths",       "migrated_elements",
      "cuckoo_evictions",  "hopscotch_displacements", "chained_chain_links",
      "phase_transitions",
  };
  const auto i = static_cast<std::size_t>(c);
  return i < kNumCounters ? names[i] : "?";
}

// A quiescent-point reading of every counter and the probe-depth histogram
// (sums over stripes). Returned by snapshot() in both modes; all-zero when
// the layer is compiled out.
struct metrics_snapshot {
  std::array<std::uint64_t, kNumCounters> totals{};
  hist_snapshot probe_depth;  // slots inspected per linear-probing op
  std::uint64_t operator[](counter c) const noexcept {
    return totals[static_cast<std::size_t>(c)];
  }
};

inline metrics_snapshot operator-(const metrics_snapshot& a, const metrics_snapshot& b) {
  metrics_snapshot d;
  for (std::size_t i = 0; i < kNumCounters; ++i) d.totals[i] = a.totals[i] - b.totals[i];
  d.probe_depth = a.probe_depth - b.probe_depth;
  return d;
}

#if PHCH_TELEMETRY_ENABLED

inline constexpr std::size_t kStripes = 64;  // power of two; see striped_counter

namespace detail {

// One thread's slice of the plane.
struct alignas(64) counter_stripe {
  std::array<std::atomic<std::uint64_t>, kNumCounters> c{};
  // The probe-depth histogram's share of this stripe.
  std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};

  void add(counter k, std::uint64_t n = 1) noexcept {
    c[static_cast<std::size_t>(k)].fetch_add(n, std::memory_order_relaxed);
  }
  void raise_max(std::uint64_t v) noexcept {
    std::uint64_t m = max.load(std::memory_order_relaxed);
    while (v > m && !max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }
};

inline std::array<counter_stripe, kStripes> g_counters;

// Scheduler workers are bound to stripe (worker_id & mask) by bind_worker;
// threads outside the pool draw a stable round-robin ticket on first use.
inline thread_local int tl_stripe = -1;

inline std::size_t stripe_index() noexcept {
  if (tl_stripe < 0) {
    static std::atomic<int> tickets{0};
    tl_stripe = tickets.fetch_add(1, std::memory_order_relaxed) &
                static_cast<int>(kStripes - 1);
  }
  return static_cast<std::size_t>(tl_stripe);
}

inline counter_stripe& my_stripe() noexcept { return g_counters[stripe_index()]; }

}  // namespace detail

// Called by the scheduler when a thread becomes pool worker `id` so its
// telemetry lands in that worker's stripe.
inline void bind_worker(int id) noexcept {
  detail::tl_stripe = id & static_cast<int>(kStripes - 1);
}

// The calling thread's stripe (also used by the trace rings as a tid).
inline int stripe() noexcept { return static_cast<int>(detail::stripe_index()); }

// Relaxed add on the caller's own stripe, for events outside a scalar
// linear-probing op (which records through op_tally).
inline void count(counter c, std::uint64_t n = 1) noexcept {
  detail::my_stripe().add(c, n);
}

// The one observability snapshot: every counter and the probe-depth
// histogram, summed over stripes.
inline metrics_snapshot snapshot() noexcept {
  metrics_snapshot m;
  hist_snapshot& h = m.probe_depth;
  for (const auto& s : detail::g_counters) {
    for (std::size_t i = 0; i < kNumCounters; ++i)
      m.totals[i] += s.c[i].load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
      const std::uint64_t n = s.buckets[i].load(std::memory_order_relaxed);
      h.buckets[i] += n;
      h.count += n;
    }
    h.sum += s.sum.load(std::memory_order_relaxed);
    h.max = std::max(h.max, s.max.load(std::memory_order_relaxed));
  }
  return m;
}

// Clears every counter and the probe-depth histogram. Quiescent-point use
// only (obs::reset()).
inline void reset_counters() noexcept {
  for (auto& s : detail::g_counters) {
    for (auto& c : s.c) c.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

// Flushes a pipelined block's depth samples: one add per touched bucket.
inline void record_probe_depth(const hist_accum& a) noexcept {
  if (a.empty()) return;
  detail::counter_stripe& s = detail::my_stripe();
  for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
    if (a.counts[i] != 0) s.buckets[i].fetch_add(a.counts[i], std::memory_order_relaxed);
  }
  s.sum.fetch_add(a.sum, std::memory_order_relaxed);
  s.raise_max(a.max);
}

// The one telemetry record of a scalar linear-probing operation. The probe
// loop bumps its plain fields (register traffic, no atomics), each return
// path names its outcome counter (set_outcome), and the destructor flushes
// everything to the caller's stripe with one lookup: the op counter, the
// outcome, slots, CAS attempts and failures, and one probe-depth sample of
// `slots`. It runs on every exit path, a thrown table_full_error included.
struct op_tally {
  explicit op_tally(counter op) noexcept : op_(op) {}
  op_tally(const op_tally&) = delete;
  op_tally& operator=(const op_tally&) = delete;
  ~op_tally() {
    detail::counter_stripe& s = detail::my_stripe();
    s.add(op_);
    if (outcome_ != counter::kCount) s.add(outcome_);
    if (slots != 0) s.add(counter::probe_slots, slots);
    if (cas != 0) s.add(counter::cas_attempts, cas);
    if (cas_failed != 0) s.add(counter::cas_failures, cas_failed);
    s.buckets[hist_bucket(slots)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(slots, std::memory_order_relaxed);
    s.raise_max(slots);
  }

  // The counter this op's return path resolved to (a commit, a hit, ...).
  void set_outcome(counter c) noexcept { outcome_ = c; }

  std::uint64_t slots = 0;
  std::uint64_t cas = 0;
  std::uint64_t cas_failed = 0;

 private:
  counter outcome_ = counter::kCount;  // kCount: the op ended with no outcome
  counter op_;
};

// One counter's tally for a batch block: plain adds while the block runs,
// flushed in one add when it ends. Compiled out it is an empty class, so a
// ring kernel's step that captures it by reference touches no memory.
class tally {
 public:
  explicit tally(counter c) noexcept : c_(c) {}
  tally(const tally&) = delete;
  tally& operator=(const tally&) = delete;
  ~tally() {
    if (n_ != 0) count(c_, n_);
  }
  void add(std::uint64_t n = 1) noexcept { n_ += n; }

 private:
  counter c_;
  std::uint64_t n_ = 0;
};

#else  // !PHCH_TELEMETRY_ENABLED — every entry point is an empty inline no-op

inline void bind_worker(int) noexcept {}
inline constexpr int stripe() noexcept { return 0; }
inline void count(counter, std::uint64_t = 1) noexcept {}
inline metrics_snapshot snapshot() noexcept { return {}; }
inline void reset_counters() noexcept {}
inline void record_probe_depth(const hist_accum&) noexcept {}

// Trivially destructible: its stores are dead and the optimizer deletes
// them. It keeps no outcome: a dead store there still perturbed register
// allocation in the erase paths, where set_outcome() is a no-op call.
struct op_tally {
  explicit constexpr op_tally(counter) noexcept {}
  void set_outcome(counter) noexcept {}
  std::uint64_t slots = 0;
  std::uint64_t cas = 0;
  std::uint64_t cas_failed = 0;
};

class tally {
 public:
  explicit tally(counter) noexcept {}
  tally(const tally&) = delete;
  tally& operator=(const tally&) = delete;
  void add(std::uint64_t = 1) noexcept {}
};

#endif  // PHCH_TELEMETRY_ENABLED

}  // namespace phch::obs
