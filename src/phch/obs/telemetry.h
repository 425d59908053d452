// Operational telemetry: striped event counters.
//
// The paper's whole evaluation is narrated through probe lengths, CAS
// traffic, and scalability, but table_stats can only measure those offline
// (it walks a quiesced slot array). This layer counts what the *live*
// system does — probe slot loads, CAS attempts and failures, batch-lane
// rotations and scalar handoffs, steals and backoff sleeps, growth
// migrations, phase transitions:
//
//  * One switch. The whole subsystem exists only when the CMake option
//    PHCH_TELEMETRY is ON (which defines PHCH_TELEMETRY=1). When it is OFF
//    (the default) every entry point below compiles to an empty inline
//    no-op, instrumented classes carry no extra members
//    (tests/test_telemetry.cpp asserts this by object size), and dead local
//    tallies vanish under optimization — the hot paths' object code is the
//    pre-telemetry code. When it is ON, every event is recorded; there is
//    no runtime switch.
//  * Striped storage. Counters live in 64 cache-line-padded stripes, one
//    per scheduler worker (the scheduler binds each worker to its stripe;
//    foreign threads get a ticket), mirroring parallel/striped_counter.h:
//    the hot path is a relaxed fetch_add on the caller's own line. Sums
//    over stripes are exact at a phase boundary / quiescent point and
//    approximate mid-phase, exactly like the occupancy counter.
//
// The histograms and the one snapshot type that reads counters and
// histograms together live in obs/histogram.h; the tracer (obs/trace.h)
// and exporters (obs/export.h) build on both. This header
// depends on nothing in phch (so phase_guard.h and the scheduler can both
// include it without cycles).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(PHCH_TELEMETRY) && PHCH_TELEMETRY
#define PHCH_TELEMETRY_ENABLED 1
#else
#define PHCH_TELEMETRY_ENABLED 0
#endif

namespace phch::obs {

// True when the layer is compiled in (CMake -DPHCH_TELEMETRY=ON).
inline constexpr bool compiled = PHCH_TELEMETRY_ENABLED == 1;

// Everything the runtime counts. Kept flat and dense so a snapshot is one
// small array and the JSON exporter can enumerate mechanically.
enum class counter : std::uint8_t {
  // probe_engine scalar loops (incl. the continuations batch ops resume).
  probe_slots,       // slot loads performed by scalar probe loops
  cas_attempts,      // CASes issued by insert/erase paths
  cas_failures,      // CASes that lost to a concurrent operation
  insert_ops,        // insert operations started (one per logical insert)
  insert_commits,    // inserts that claimed an empty slot (new element)
  insert_dups,       // inserts resolved against an existing key (merge/no-op)
  insert_aborts,     // bounded inserts aborted by the probe limit (growable)
  erase_ops,         // erase operations started
  erase_hits,        // erases that actually removed a live element
  find_ops,          // finds started (scalar or pipelined)
  find_hits,         // finds that returned a stored value
  // core/batch_ops.h pipelined engines.
  batch_probe_slots, // slot inspections by the pipelined prefix scans
  batch_rotations,   // ring-lane rotations (one per line crossed per op)
  batch_handoffs,    // pipelined-prefix -> scalar-continuation handoffs
  batch_blocks,      // pipelined blocks executed
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

#if PHCH_TELEMETRY_ENABLED

inline constexpr std::size_t kStripes = 64;  // power of two; see striped_counter

namespace detail {

struct alignas(64) counter_stripe {
  std::array<std::atomic<std::uint64_t>, kNumCounters> c{};
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

}  // namespace detail

// Called by the scheduler when a thread becomes pool worker `id` so its
// telemetry lands in that worker's stripe.
inline void bind_worker(int id) noexcept {
  detail::tl_stripe = id & static_cast<int>(kStripes - 1);
}

// The calling thread's stripe (also used by the trace rings as a tid).
inline int stripe() noexcept { return static_cast<int>(detail::stripe_index()); }

// The one hot-path entry point: relaxed add on the caller's own line.
inline void count(counter c, std::uint64_t n = 1) noexcept {
  detail::g_counters[detail::stripe_index()]
      .c[static_cast<std::size_t>(c)]
      .fetch_add(n, std::memory_order_relaxed);
}

inline std::uint64_t total(counter c) noexcept {
  std::uint64_t t = 0;
  for (const auto& s : detail::g_counters)
    t += s.c[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  return t;
}

inline void reset_counters() noexcept {
  for (auto& s : detail::g_counters)
    for (auto& c : s.c) c.store(0, std::memory_order_relaxed);
}

// Scratch tally for one scalar table operation: the probe loop bumps plain
// locals (register traffic, no atomics) and the destructor flushes them to
// the stripes in at most three adds. When the layer is compiled out the
// increments write dead stack slots the optimizer deletes.
struct probe_tally {
  std::uint64_t slots = 0;
  std::uint64_t cas = 0;
  std::uint64_t cas_failed = 0;
  probe_tally() = default;
  probe_tally(const probe_tally&) = delete;
  probe_tally& operator=(const probe_tally&) = delete;
  ~probe_tally() {
    if (slots != 0) count(counter::probe_slots, slots);
    if (cas != 0) count(counter::cas_attempts, cas);
    if (cas_failed != 0) count(counter::cas_failures, cas_failed);
  }
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
inline constexpr std::uint64_t total(counter) noexcept { return 0; }
inline void reset_counters() noexcept {}

struct probe_tally {
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
