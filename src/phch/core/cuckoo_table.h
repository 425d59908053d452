// cuckooHash: the paper's phase-concurrent (but non-deterministic) cuckoo
// baseline. Two hash functions; an insertion locks its element's two
// candidate slots in increasing slot order (deadlock freedom), places the
// element in one of them, and recursively re-inserts any evicted element.
// The final position of an element depends on insertion interleaving, so
// the layout is history-dependent.
//
// As in the paper's implementation, every slot carries its own lock, which
// enlarges the memory footprint and is why elements() is slower here than
// for the plain linear-probing tables.
//
// Slots live in a slot_array (core/table_common.h): 64-byte aligned, on
// 2 MB pages once the array reaches 2 MB; the per-slot locks sit beside it.
//
// The table models phase_table / deletable_table / block_table. Cuckoo
// probes touch exactly two unrelated cache lines per operation, so each
// block member's lanes (core/batch_ops.h's run_handoff_block) prefetch
// *both* candidate buckets (and their lock lines, for mutating ops) one
// rotation before resolving each operation on warm lines. The step is the
// scalar op from the hash the lane's start computed — for an insert, the
// first eviction and any chain after it run exactly the scalar code. The
// table keeps no element count; count() is an O(capacity) scan.
// phch_lint: table-header
#pragma once

#include <cassert>
#include <cstdint>
#include <mutex>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/entry_traits.h"
#include "phch/core/phase_runtime.h"
#include "phch/core/table_common.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/spinlock.h"

namespace phch {

template <typename Traits = int_entry<>>
class cuckoo_table {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  explicit cuckoo_table(std::size_t min_capacity)
      : slots_(min_capacity < 4 ? 4 : min_capacity), locks_(slots_.capacity()) {}

  std::size_t capacity() const noexcept { return slots_.capacity(); }

  // Occupied slots, by parallel scan.
  std::size_t count() const { return slots_.count(); }

  void clear() { slots_.clear(); }

  void insert(value_type v) {
    phase_runtime::scope guard(phase_, op_kind::insert);
    insert_impl(v, Traits::hash(Traits::key(v)));
  }

  void erase(key_type kq) {
    phase_runtime::scope guard(phase_, op_kind::erase);
    erase_impl(kq, Traits::hash(kq));
  }

  value_type find(key_type kq) const {
    phase_runtime::scope guard(phase_, op_kind::query);
    return find_impl(kq, Traits::hash(kq));
  }

  bool contains(key_type kq) const {
    return !Traits::is_empty(find(kq));
  }

  std::vector<value_type> elements() const {
    phase_runtime::scope guard(phase_, op_kind::query);
    return slots_.elements();
  }

  // --- pipelined block members (core/batch_ops.h) ---------------------------
  // Serial within a block; the free batch functions supply the cross-block
  // parallelism. All three run through run_handoff_block: a lane's start
  // hashes the key once and prefetches both candidate buckets (and their
  // lock lines, for mutating ops), so by the time the ring rotates back the
  // scalar op runs from that hash on warm lines: a lookup inspects at most
  // two resident slots; a mutating op takes its first lock/probe/CAS on the
  // lines just fetched (evictions past that point run the plain scalar
  // chain).

  template <typename K>
  void find_block(const K* keys, std::size_t n, value_type* out) const {
    phase_runtime::scope guard(phase_, op_kind::query);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_candidates_ro(keys[i]); },
        [&](std::size_t i, std::uint64_t h) { out[i] = find_impl(keys[i], h); });
  }

  template <typename V>
  void insert_block(const V* values, std::size_t n) {
    phase_runtime::scope guard(phase_, op_kind::insert);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_candidates(Traits::key(values[i])); },
        [&](std::size_t i, std::uint64_t h) { insert_impl(values[i], h); });
  }

  template <typename K>
  void erase_block(const K* keys, std::size_t n) {
    phase_runtime::scope guard(phase_, op_kind::erase);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_candidates(keys[i]); },
        [&](std::size_t i, std::uint64_t h) { erase_impl(keys[i], h); });
  }

  // The table's single phase-state word (phase epoch + current class,
  // core/phase_runtime.h), shared by scalar and block scopes.
  phase_runtime& phase_rt() const noexcept { return phase_; }

 private:
  static constexpr std::size_t kMaxEvictions = 10000;

  // The two candidate slots of a key whose Traits::hash is h.
  std::size_t home1(std::uint64_t h) const noexcept { return h & slots_.mask(); }
  std::size_t home2(std::uint64_t h) const noexcept {
    // Independent second hash from a re-mix of the primary hash.
    return hash64(h ^ 0xc2b2ae3d27d4eb4fULL) & slots_.mask();
  }

  // A mutating block lane's first touches: hash k once, prefetch both
  // candidate slots and their lock lines, and return the hash for the
  // lane's step. Always inlined, so GCC cannot delete the prefetches (see
  // detail::prefetch_rw).
  [[gnu::always_inline]] std::uint64_t prefetch_candidates(key_type k) const {
    const std::uint64_t h = Traits::hash(k);
    const std::size_t i1 = home1(h), i2 = home2(h);
    detail::prefetch_rw(&slots_[i1]);
    detail::prefetch_rw(&slots_[i2]);
    detail::prefetch_rw(&locks_[i1]);
    detail::prefetch_rw(&locks_[i2]);
    return h;
  }

  // A find lane's first touches: hash k once and prefetch both candidate
  // slots read-only (a lookup takes no lock).
  [[gnu::always_inline]] std::uint64_t prefetch_candidates_ro(key_type k) const {
    const std::uint64_t h = Traits::hash(k);
    detail::prefetch_ro(&slots_[home1(h)]);
    detail::prefetch_ro(&slots_[home2(h)]);
    return h;
  }

  void lock_pair(std::size_t a, std::size_t b) const {
    if (a == b) {
      locks_[a].lock();
      return;
    }
    if (a > b) std::swap(a, b);  // increasing order prevents deadlock
    locks_[a].lock();
    locks_[b].lock();
  }
  void unlock_pair(std::size_t a, std::size_t b) const {
    locks_[a].unlock();
    if (b != a) locks_[b].unlock();
  }

  // Scalar insert loop of v, whose key hashes to h, shared by insert() and
  // insert_block's handoff. Exactly one of insert_commits / insert_dups /
  // insert_aborts is recorded per call (the ledger identity phch_trace
  // checks); eviction-chain steps that re-place a carried victim tick only
  // cuckoo_evictions.
  void insert_impl(value_type v, std::uint64_t h) {
    assert(!Traits::is_empty(v));
    obs::count(obs::counter::insert_ops);
    // `avoid` is the slot the current element was just evicted from, so the
    // chain does not immediately bounce it back.
    std::size_t avoid = capacity();  // invalid
    bool carrying = false;           // v is an evicted victim, already counted
    for (std::size_t iter = 0; iter < kMaxEvictions; ++iter) {
      const key_type k = Traits::key(v);
      const std::size_t i1 = home1(h);
      const std::size_t i2 = home2(h);
      lock_pair(i1, i2);
      // Duplicate key already present? A carried victim can hit this branch
      // too: while it was in flight, a concurrent insert of the same key may
      // have committed a fresh copy, and the victim merges into it.
      for (const std::size_t s : {i1, i2}) {
        const value_type c = slots_[s];
        if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), k)) {
          if constexpr (Traits::has_combine) {
            atomic_store(&slots_[s], Traits::combine(c, v));
          }
          unlock_pair(i1, i2);
          if (!carrying) obs::count(obs::counter::insert_dups);
          return;
        }
      }
      // An empty candidate slot?
      for (const std::size_t s : {i1, i2}) {
        if (Traits::is_empty(slots_[s])) {
          atomic_store(&slots_[s], v);
          unlock_pair(i1, i2);
          if (!carrying) obs::count(obs::counter::insert_commits);
          return;
        }
      }
      // Evict: prefer i1 unless that is where v just came from.
      const std::size_t victim_slot = (i1 == avoid) ? i2 : i1;
      const value_type victim = slots_[victim_slot];
      atomic_store(&slots_[victim_slot], v);
      unlock_pair(i1, i2);
      if (!carrying) {
        obs::count(obs::counter::insert_commits);
        carrying = true;
      }
      obs::count(obs::counter::cuckoo_evictions);
      v = victim;
      h = Traits::hash(Traits::key(v));
      avoid = victim_slot;
    }
    // Eviction chain too long: table effectively full. The carried victim
    // is dropped with the throw.
    obs::count(obs::counter::insert_aborts);
    throw table_full_error();
  }

  void erase_impl(key_type kq, std::uint64_t h) {
    obs::count(obs::counter::erase_ops);
    const std::size_t i1 = home1(h);
    const std::size_t i2 = home2(h);
    lock_pair(i1, i2);
    bool hit = false;
    for (const std::size_t s : {i1, i2}) {
      const value_type c = slots_[s];
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), kq)) {
        atomic_store(&slots_[s], Traits::empty());
        hit = true;
        break;
      }
    }
    unlock_pair(i1, i2);
    if (hit) obs::count(obs::counter::erase_hits);
  }

  // Scalar lookup of kq, whose key hashes to h, shared by find() and
  // find_block's handoff.
  value_type find_impl(key_type kq, std::uint64_t h) const {
    obs::count(obs::counter::find_ops);
    obs::tally slots(obs::counter::probe_slots);
    for (const std::size_t s : {home1(h), home2(h)}) {
      const value_type c = atomic_load(&slots_[s]);
      slots.add();
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), kq)) {
        obs::count(obs::counter::find_hits);
        return c;
      }
    }
    return Traits::empty();
  }

  slot_array<Traits> slots_;
  mutable std::vector<spinlock> locks_;
  mutable phase_runtime phase_;
};

}  // namespace phch
