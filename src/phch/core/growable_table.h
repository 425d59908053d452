// growable_table: the resizing extension outlined in §4 of the paper, on
// top of the deterministic phase-concurrent table.
//
// Growth is decided by one load bound (below). A thread that finds the
// table too full allocates one of twice the size behind a lock ("a lock can
// be used to avoid multiple processes allocating simultaneously"), and the
// old contents are re-inserted with the same deterministic protocol, so the
// migrated layout is history-independent too. Migration is batched: the old
// table's live elements are packed out in parallel and re-inserted through
// the inner table's insert_block, so the copy overlaps its home-line misses
// exactly like any other insert batch.
//
// Divergences from the paper's sketch, documented here:
// - The paper grows when an insert's probe runs past k * log2(capacity)
//   slots. We grow from a count instead (Maier et al.): a probe-length
//   trigger does not bound the load of a small table, where probes stay
//   short right up to full.
// - The paper migrates *incrementally* (each insert copies two elements and
//   both tables stay live), which requires finds/deletes to consult both
//   tables. We instead drain in-flight *inserts* and migrate completely
//   before new inserts proceed — a stop-the-insert-phase variant that keeps
//   exactly one live table, preserves determinism trivially, and has the
//   same amortized cost. Only inserts can trigger growth; finds and deletes
//   see a single table, as in the paper.
//
// Lifetime of the old slot array: migrate() deletes it right after
// publishing the new table. Writers cannot still be using it, because
// resync() drains them through enter()/leave() first; readers cannot,
// because the phase discipline (Definition 1) keeps finds and erases out of
// insert phases, and only inserts grow.
//
// Load bound: the inner table keeps no element count (linearHash-D has
// none), so the wrapper counts for itself and reconciles rarely. `bound_`
// is one atomic upper bound on live elements: every insert reserves before
// it touches a slot (a scalar insert 1, a batch chunk its size) and checks
// the value its fetch_add returns against ceiling(); erases never touch it.
// The ceiling is 3/4 of capacity but always leaves a slot empty, so a table
// never fills. A reservation that does not fit is undone and handed to
// resync(), which under grow_lock_ first retries it against the table that
// is current now (another thread may just have grown it). Otherwise it
// drains writers, takes one exact count(), grows while count + incoming
// exceeds the ceiling or the count alone exceeds 1/2, inserts the incoming
// values and resets the bound to count + incoming. The 1/2 rule leaves cap/4
// of headroom after a resync that does not grow, so counts cost amortized
// O(1) per insert even on duplicate-heavy input; unique keys grow exactly
// where a per-insert count would grow them, at any worker count.
//
// The wrapper is the one table with its own insert_batch/find_batch/
// erase_batch, which the free batch functions (core/batch_ops.h) forward to
// (`batch_forwarding_table`): a batch insert runs in bounded chunks, one
// after another, with one reservation per chunk — never per element — and
// grows between chunks, so a single batch may cross several capacity
// doublings.
// phch_lint: table-header
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

  void insert(value_type v) {
    insert_reserved(&v, 1, [&](inner_table& t) { t.insert(v); });
  }

  // Erases and queries take no enter()/leave(): the phase discipline keeps
  // them out of insert phases, and only inserts grow.
  void erase(key_type kq) { cur()->erase(kq); }
  value_type find(key_type kq) const { return cur()->find(kq); }
  bool contains(key_type kq) const { return cur()->contains(kq); }
  std::vector<value_type> elements() const { return cur()->elements(); }

  // --- whole-batch operations ----------------------------------------------
  //
  // Batch inserts run in fixed-size chunks, one after another, each through
  // the scalar insert's routine: the chunk reserves its size in the load
  // bound and then runs the inner table's block members with no per-insert
  // bookkeeping. A batch is one insert phase (Definition 1), so
  // finds/erases never run concurrently with it. Inside a parallel region a
  // chunk runs serially: it holds enter() across its joins, so a sibling
  // insert stolen by one of them could wait in resync() for that enter()
  // forever.

  void insert_batch(const value_type* values, std::size_t n) {
    for (std::size_t s = 0; s < n; s += kGrowChunk) {
      const value_type* part = values + s;
      const std::size_t chunk = std::min(kGrowChunk, n - s);
      insert_reserved(part, chunk, [&](inner_table& t) {
        run_serially_if_nested([&] { phch::insert_batch(t, part, chunk); });
      });
    }
  }
  std::vector<value_type> find_batch(const std::vector<key_type>& keys) const {
    return phch::find_batch(*cur(), keys);
  }

  void erase_batch(const std::vector<key_type>& keys) {
    phch::erase_batch(*cur(), keys);
  }

  std::size_t growth_count() const noexcept {
    return growths_.load(std::memory_order_relaxed);
  }

  // Read-only view of the current flat table, for layout inspection at
  // quiescent points (racy against a concurrent growth).
  const inner_table& inner() const noexcept { return *cur(); }

 private:
  // Elements per growth-checked chunk of a batch insert. Small enough that
  // "fits under the load ceiling" is checkable up front per chunk,
  // large enough to amortize the check and keep the block engine's
  // blocks full.
  static constexpr std::size_t kGrowChunk = 4096;

  inner_table* cur() const noexcept {
    return table_.load(std::memory_order_acquire);
  }

  // Most live elements a table of capacity `cap` may hold: 3/4 of it, but
  // never every slot (at capacity 2, 3/4 is the whole table).
  static std::size_t ceiling(std::size_t cap) noexcept {
    return cap - std::max<std::size_t>(cap / 4, 1);
  }

  // Reserves `n` elements in the load bound against capacity `cap`. Every
  // reservation is an RMW on the one atomic bound_, so of two racing
  // reservations the later one's RMW returns the earlier one's: inserts
  // that run together fit under the ceiling together. A reservation that
  // does not fit is undone.
  bool reserve(std::size_t n, std::size_t cap) noexcept {
    if (bound_.fetch_add(n, std::memory_order_seq_cst) + n <= ceiling(cap)) return true;
    bound_.fetch_sub(n, std::memory_order_seq_cst);
    return false;
  }

  // The one insert routine: reserve [values, values + n) in the load bound
  // inside the enter()/leave() window, then run `insert` on the current
  // table; a reservation that does not fit goes to resync() instead.
  template <typename Insert>
  void insert_reserved(const value_type* values, std::size_t n, const Insert& insert) {
    enter();
    // Writers resolve the table pointer inside the enter()/leave() window so
    // a migration observes every committed insert (resync() drains the
    // active count before counting or packing the old contents).
    inner_table* t = cur();
    if (!reserve(n, t->capacity())) {
      leave();
      resync(values, n);
      return;
    }
    try {
      insert(*t);
    } catch (...) {
      leave();
      throw;
    }
    leave();
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

  // Inserts [values, values + n), whose reservation did not fit (header
  // comment). Under grow_lock_ no other resync() can swap the table, so a
  // retried reservation that fits inserts without enter().
  void resync(const value_type* values, std::size_t n) {
    std::lock_guard<std::mutex> lg(grow_lock_);
    inner_table* t = cur();
    if (reserve(n, t->capacity())) {
      run_serially_if_nested([&] { phch::insert_batch(*t, values, n); });
      return;
    }
    resizing_.store(true, std::memory_order_seq_cst);
    // Drain in-flight inserts (seq_cst: see enter()).
    while (active_.load(std::memory_order_seq_cst) != 0) cpu_relax();
    std::size_t exact = 0;
    run_serially_if_nested([&] {
      exact = t->count();
      const std::size_t cap = t->capacity();
      std::size_t target = cap;
      while (exact + n > ceiling(target) || exact > target / 2) target *= 2;
      if (target != cap) t = migrate(t, target);
      phch::insert_batch(*t, values, n);
    });
    bound_.store(exact + n, std::memory_order_relaxed);
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
  // Upper bound on live elements (header comment). It shares active_'s line:
  // a line of its own measured the same at 4 workers.
  std::atomic<std::size_t> bound_{0};
};

static_assert(batch_forwarding_table<growable_table<>>);

}  // namespace phch
