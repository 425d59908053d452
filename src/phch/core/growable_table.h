// growable_table: the resizing extension outlined in §4 of the paper, on
// top of the deterministic phase-concurrent table.
//
// An insert detects an overfull table when its probe sequence exceeds a
// threshold of k * log2(capacity) slots (w.h.p. probes are shorter at a
// bounded load factor). The detecting thread allocates a table of twice the
// size behind a lock ("a lock can be used to avoid multiple processes
// allocating simultaneously"), and insertions cooperate to migrate the old
// contents before continuing — re-inserting with the same deterministic
// protocol, so the migrated layout is history-independent too. Migration is
// batched: the old table's live elements are packed out in parallel and
// re-inserted through the inner table's insert_block, so the copy
// overlaps its home-line misses exactly like any other insert batch.
//
// Divergence from the paper's sketch, documented here: the paper migrates
// *incrementally* (each insert copies two elements and both tables stay
// live), which requires finds/deletes to consult both tables. We instead
// drain in-flight *inserts* and migrate completely before new inserts
// proceed — a stop-the-insert-phase variant that keeps exactly one live
// table, preserves determinism trivially, and has the same amortized cost.
// Only inserts can trigger growth; finds and deletes see a single table, as
// in the paper.
//
// Lifetime of the old slot array: migrate() deletes it right after
// publishing the new table. Writers cannot still be using it, because
// resync() drains them through enter()/leave() first; readers cannot,
// because the phase discipline (Definition 1) keeps finds and erases out of
// insert phases, and only inserts grow.
//
// Load bound: the inner table keeps no element count (linearHash-D has
// none), so the wrapper counts for itself and reconciles rarely (Maier et
// al.). The bound is an upper bound on live elements in two parts: a scalar
// insert adds 1 to the striped `bound_`, a batch chunk adds its size to the
// single atomic `reserved_`, and erases touch neither. When an insert would
// push the bound past 3/4 of capacity, resync() takes one exact count() with
// writers drained, grows while count + incoming exceeds 3/4 or the count
// alone exceeds 1/2, and resets the bound to the count. The 1/2 rule leaves
// cap/4 of headroom after a resync that does not grow, so scans cost
// amortized O(1) per insert even on duplicate-heavy input; unique keys grow
// exactly where a per-insert count would grow them.
//
// The wrapper is the one table with its own insert_batch/find_batch/
// erase_batch, which the free batch functions (core/batch_ops.h) forward to
// (`batch_forwarding_table`): a batch insert runs in bounded chunks with one
// load-bound check per chunk — never per element — and grows between
// chunks, so a single batch may cross several capacity doublings.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/table_concepts.h"
#include "phch/obs/trace.h"
#include "phch/parallel/scheduler.h"
#include "phch/parallel/spinlock.h"  // cpu_relax
#include "phch/parallel/striped_counter.h"
#include "phch/utils/phase_caps.h"

namespace phch {

template <typename Traits = int_entry<>>
class growable_table {
 public:
  using inner_table = deterministic_table<Traits>;
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  explicit growable_table(std::size_t initial_capacity = 1024)
      : table_(new inner_table(initial_capacity)) {}

  growable_table(const growable_table&) = delete;
  growable_table& operator=(const growable_table&) = delete;

  ~growable_table() { delete table_.load(std::memory_order_relaxed); }

  std::size_t capacity() const noexcept { return cur()->capacity(); }
  std::size_t count() const { return cur()->count(); }

  void insert(value_type v) PHCH_REQUIRES_PHASE(insert) {
    using result = typename inner_table::insert_result;
    for (;;) {
      enter();
      result r;
      std::size_t cap;
      bool crowded = false;
      try {
        // Writers resolve the table pointer inside the enter()/leave()
        // window so a migration observes every committed insert (resync()
        // drains the active count before packing the old contents).
        inner_table* t = cur();
        cap = t->capacity();
        r = t->insert_bounded(v, probe_limit(cap));
        // Secondary trigger: the load bound, checked for room for the next
        // insert (the probe-length trigger alone cannot protect very small
        // tables, where probes can stay short right up to full). Counted
        // inside the enter()/leave() window, so resync() drains it.
        if (r != result::aborted) bound_.increment();
        crowded = r == result::ok && over_ceiling(1, cap);
      } catch (...) {
        leave();
        throw;
      }
      leave();
      if (r == result::ok) {
        if (crowded) resync(cap, false);
        return;
      }
      // Probe sequence too long: this table is overfull. Grow it (or help a
      // growth already under way), then retry if the insert was aborted.
      resync(cap, true);
      if (r == result::lengthy) return;  // inserted, just slowly
    }
  }

  // Erases and queries take no enter()/leave(): the phase discipline keeps
  // them out of insert phases, and only inserts grow.
  void erase(key_type kq) PHCH_REQUIRES_PHASE(erase) { cur()->erase(kq); }
  value_type find(key_type kq) const PHCH_REQUIRES_PHASE(query) {
    return cur()->find(kq);
  }
  bool contains(key_type kq) const PHCH_REQUIRES_PHASE(query) {
    return cur()->contains(kq);
  }
  std::vector<value_type> elements() const PHCH_REQUIRES_PHASE(query) {
    return cur()->elements();
  }

  // --- whole-batch operations ----------------------------------------------
  //
  // Batch inserts run in fixed-size chunks. Each chunk reserves its size in
  // the load bound and checks once that the bound stays under the 3/4
  // ceiling; the chunk then runs the inner table's block members
  // with no per-insert bookkeeping. A chunk that does not fit is
  // inserted by resync() instead, after any growth it needs, with the table
  // to itself. A batch is one insert phase (Definition 1), so finds/erases
  // never run concurrently with it. Inside a parallel region a chunk runs
  // serially: it holds enter() across its joins, so a sibling insert stolen
  // by one of them could wait in resync() for that enter() forever.

  void insert_batch(const value_type* values, std::size_t n)
      PHCH_REQUIRES_PHASE(insert) {
    for (std::size_t s = 0; s < n; s += kGrowChunk) {
      const value_type* part = values + s;
      const std::size_t chunk = std::min(kGrowChunk, n - s);
      enter();
      inner_table* t = cur();
      const std::size_t cap = t->capacity();
      // Reserve, then check. Every chunk reserves with an RMW on the one
      // atomic reserved_, so of two racing chunks the later one's RMW, and
      // its check after it, see the earlier one's reservation: chunks that
      // run together fit under the ceiling together.
      reserved_.fetch_add(static_cast<std::int64_t>(chunk), std::memory_order_seq_cst);
      if (over_ceiling(0, cap)) {
        reserved_.fetch_sub(static_cast<std::int64_t>(chunk), std::memory_order_seq_cst);
        leave();
        resync(cap, false, part, chunk);
        continue;
      }
      try {
        run_serially_if_nested([&] { phch::insert_batch(*t, part, chunk); });
      } catch (...) {
        leave();
        throw;
      }
      leave();
    }
  }
  std::vector<value_type> find_batch(const std::vector<key_type>& keys) const
      PHCH_REQUIRES_PHASE(query) {
    return phch::find_batch(*cur(), keys);
  }

  void erase_batch(const std::vector<key_type>& keys)
      PHCH_REQUIRES_PHASE(erase) {
    phch::erase_batch(*cur(), keys);
  }

  std::size_t growth_count() const noexcept {
    return growths_.load(std::memory_order_relaxed);
  }

  // Read-only view of the current flat table, for layout inspection at
  // quiescent points (racy against a concurrent growth).
  const inner_table& inner() const noexcept { return *cur(); }

  // Phase-capability tokens (utils/phase_caps.h): the static half of the
  // phase contract the inner table's phase scopes check at runtime. Public
  // so callers' phase-region markers can name them in their own annotations.
  PHCH_PHASE_CAPABILITIES();

 private:
  // Probe-length trigger: an insert whose probe passes
  // kProbeLimitFactor * log2(capacity) slots declares the table overfull.
  static constexpr std::size_t kProbeLimitFactor = 16;

  // Elements per growth-checked chunk of a batch insert. Small enough that
  // "fits under the load ceiling" is checkable up front per chunk,
  // large enough to amortize the check and keep the block engine's
  // blocks full.
  static constexpr std::size_t kGrowChunk = 4096;

  inner_table* cur() const noexcept {
    return table_.load(std::memory_order_acquire);
  }

  // True if `incoming` more elements would push the load bound past 3/4 of
  // capacity. A scalar insert may miss a few racing increments of the
  // striped part; the cap/4 slack and the probe-length trigger absorb them.
  bool over_ceiling(std::size_t incoming, std::size_t cap) const noexcept {
    const std::int64_t bound = bound_.sum() + reserved_.load(std::memory_order_relaxed);
    return static_cast<std::size_t>(bound) + incoming > cap - cap / 4;
  }

  // Runs f with this thread's joins disabled when it is inside a parallel
  // region: a join could steal one of the phase's pending inserts, which
  // would then wait on a resize this thread holds (or re-enter grow_lock_).
  template <typename F>
  static void run_serially_if_nested(F&& f) {
    if (scheduler::in_parallel()) {
      serial_region serial;
      f();
    } else {
      f();
    }
  }

  std::size_t probe_limit(std::size_t cap) const noexcept {
    // Capped at half the capacity so small tables trigger growth instead of
    // genuinely filling up.
    std::size_t lg = 1;
    for (std::size_t c = cap; c > 1; c >>= 1) ++lg;
    return std::min(kProbeLimitFactor * lg, cap / 2);
  }

  // enter() and resync() form a store-buffering (Dekker) pair: each side
  // stores its own flag, then loads the other's. The store and the load on
  // each side are seq_cst so at least one side sees the other — with
  // acquire/release alone both could read the old value, and a writer would
  // insert into a table resync() is counting or migrating (and then frees).
  void enter() noexcept {
    for (;;) {
      active_.fetch_add(1, std::memory_order_seq_cst);
      if (!resizing_.load(std::memory_order_seq_cst)) return;
      // A resize is pending; back out and wait for it to finish.
      active_.fetch_sub(1, std::memory_order_release);
      while (resizing_.load(std::memory_order_acquire)) cpu_relax();
    }
  }
  void leave() noexcept { active_.fetch_sub(1, std::memory_order_release); }

  // Reconciles the load bound with an exact count, growing as needed (header
  // comment); `overfull` (the probe-length trigger) grows at least once. A
  // batch chunk that did not fit is passed as [chunk, chunk + n) and
  // inserted here before writers resume. Without one, the call returns if
  // another thread resized or resynced since the caller saw `seen_cap`.
  void resync(std::size_t seen_cap, bool overfull, const value_type* chunk = nullptr,
              std::size_t n = 0) {
    std::lock_guard<std::mutex> lg(grow_lock_);
    inner_table* t = cur();
    if (chunk == nullptr) {
      if (t->capacity() != seen_cap) return;  // someone else grew it
      if (!overfull && !over_ceiling(1, seen_cap)) return;  // or resynced
    }
    resizing_.store(true, std::memory_order_seq_cst);
    // Drain in-flight inserts (seq_cst: see enter()).
    while (active_.load(std::memory_order_seq_cst) != 0) cpu_relax();
    std::size_t exact = 0;
    run_serially_if_nested([&] {
      exact = t->count();
      const std::size_t cap = t->capacity();
      std::size_t target = overfull ? cap * 2 : cap;
      while (exact + n > target - target / 4 || exact > target / 2) target *= 2;
      if (target != cap) t = migrate(t, target);
      if (n != 0) phch::insert_batch(*t, chunk, n);
    });
    bound_.reset();
    bound_.add(static_cast<std::int64_t>(exact + n));
    reserved_.store(0, std::memory_order_relaxed);
    resizing_.store(false, std::memory_order_release);
  }

  // Allocates the new table and migrates: deterministic re-insertion of the
  // old contents through the block members. Theorem 1 makes the
  // migrated layout identical to a fresh build regardless of re-insertion
  // order, so batching changes nothing observable. Called by resync() with
  // writers drained and, inside a parallel region, with joins disabled: the
  // other workers are spinning in enter() anyway.
  inner_table* migrate(inner_table* old, std::size_t target_capacity) {
    obs::span sp("grow");
    auto fresh = std::make_unique<inner_table>(target_capacity);
    const std::vector<value_type> live = old->elements();
    phch::insert_batch(*fresh, live.data(), live.size());
    obs::count(obs::counter::growths);
    obs::count(obs::counter::migrated_elements, live.size());
    sp.a = static_cast<std::uint32_t>(
        live.size() < 0xffffffffu ? live.size() : 0xffffffffu);
    sp.b = target_capacity;
    // Publish the new table, then free the old one: no writer holds it (they
    // are drained) and no reader can (see "Lifetime" in the header comment).
    inner_table* published = fresh.release();
    table_.store(published, std::memory_order_release);
    delete old;
    growths_.fetch_add(1, std::memory_order_relaxed);
    return published;
  }

  std::atomic<inner_table*> table_;
  std::mutex grow_lock_;
  std::atomic<bool> resizing_{false};
  // Every insert RMWs active_ twice and loads table_ and resizing_ in
  // between, so active_ gets a cache line apart from those two. (Sharing one
  // made scalar inserts ~15% slower at 4 workers on a 4-core x86 VM.)
  alignas(64) std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> growths_{0};
  // Upper bound on live elements (header comment): scalar inserts' striped
  // part and batch chunks' reservations. Every insert reads both, so they
  // get a cache line apart from active_'s RMWs.
  alignas(64) striped_counter bound_;
  std::atomic<std::int64_t> reserved_{0};
};

static_assert(batch_forwarding_table<growable_table<>>);

}  // namespace phch
