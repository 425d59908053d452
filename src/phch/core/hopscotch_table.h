// hopscotchHash: re-implementation of Herlihy, Shavit & Tzafrir's hopscotch
// hashing (DISC 2008), the paper's fastest fully-concurrent open-addressing
// competitor, plus the paper's "-PC" variant.
//
// Every bucket b carries a 64-bit hop bitmap: bit d set means slot b+d
// (mod capacity) holds an element whose home bucket is b, so a find touches
// at most one extra cache line. Inserts lock the home bucket's *segment*,
// claim an empty slot with a CAS on a BUSY sentinel, and if the slot is
// further than H = 64 positions from home, repeatedly displace an element
// from the window just below the free slot to bring the hole closer.
//
// Concurrency control, as in the original:
//  - striped segment locks serialize updates to a bucket's hop bitmap;
//  - a per-segment timestamp lets fully-concurrent finds detect a racing
//    displacement and fall back to a linear scan of the hop window.
//
// The phase-concurrent variant (WithTimestamps = false) is the paper's
// hopscotchHash-PC: when finds never overlap updates the timestamp field is
// dead weight, so it is removed entirely.
//
// Slots live in a slot_array (core/table_common.h): 64-byte aligned, so the
// neighborhood prefetch's "next line" is a whole line, and on 2 MB pages
// once the array reaches 2 MB. The hop bitmaps, segment locks and
// timestamps sit beside it.
//
// The table models phase_table / deletable_table / block_table: every
// operation's first touches are the home bucket's hop word and the slots of
// its neighborhood, so each block member runs through core/batch_ops.h's
// run_handoff_block, whose start prefetches that home neighborhood (hop
// word line, the home slot line and the next slot line — where nearly all
// residents sit at sane load factors — plus the segment-lock line for
// mutating ops) one rotation before the scalar walk resolves the operation
// on warm lines. The table keeps no element count; count() is an
// O(capacity) scan.
// phch_lint: table-header
#pragma once

#include <atomic>
#include <bit>
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
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/spinlock.h"

namespace phch {

template <typename Traits = int_entry<>, bool WithTimestamps = true>
class hopscotch_table {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  static constexpr std::size_t kHopRange = 64;  // machine word, as the paper suggests

  explicit hopscotch_table(std::size_t min_capacity)
      : slots_(std::max<std::size_t>(min_capacity, 4 * kHopRange)),
        hop_(capacity(), 0),
        locks_(capacity() / kSegmentSize),
        timestamps_(WithTimestamps ? capacity() / kSegmentSize : 1) {}

  std::size_t capacity() const noexcept { return slots_.capacity(); }

  // Occupied slots, by parallel scan.
  std::size_t count() const { return slots_.count(); }

  void clear() {
    slots_.clear();
    parallel_for(0, capacity(), [&](std::size_t i) { hop_[i] = 0; });
  }

  void insert(value_type v) {
    phase_runtime::scope guard(phase_, op_kind::insert);
    insert_impl(v, home(Traits::key(v)));
  }

  void erase(key_type kq) {
    phase_runtime::scope guard(phase_, op_kind::erase);
    erase_impl(kq, home(kq));
  }

  value_type find(key_type kq) const {
    phase_runtime::scope guard(phase_, op_kind::query);
    return find_impl(kq, home(kq));
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
  // hashes the key and prefetches its home neighborhood, so by the time the
  // ring rotates back the scalar walk runs from that home on warm lines.

  template <typename K>
  void find_block(const K* keys, std::size_t n, value_type* out) const {
    phase_runtime::scope guard(phase_, op_kind::query);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_neighborhood_ro(keys[i]); },
        [&](std::size_t i, std::uint64_t h) {
          out[i] = find_impl(keys[i], h & slots_.mask());
        });
  }

  template <typename V>
  void insert_block(const V* values, std::size_t n) {
    phase_runtime::scope guard(phase_, op_kind::insert);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_neighborhood_rw(Traits::key(values[i])); },
        [&](std::size_t i, std::uint64_t h) { insert_impl(values[i], h & slots_.mask()); });
  }

  template <typename K>
  void erase_block(const K* keys, std::size_t n) {
    phase_runtime::scope guard(phase_, op_kind::erase);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_neighborhood_rw(keys[i]); },
        [&](std::size_t i, std::uint64_t h) { erase_impl(keys[i], h & slots_.mask()); });
  }

  // The table's single phase-state word (phase epoch + current class,
  // core/phase_runtime.h), shared by scalar and block scopes.
  phase_runtime& phase_rt() const noexcept { return phase_; }

 private:
  static constexpr std::size_t kSegmentSize = 256;  // buckets per lock stripe
  static constexpr int kFindRetries = 2;

  std::size_t home(key_type k) const { return Traits::hash(k) & slots_.mask(); }
  std::size_t segment(std::uint64_t unwrapped) const noexcept {
    return (unwrapped & slots_.mask()) / kSegmentSize;
  }
  value_type* slot(std::uint64_t unwrapped) noexcept {
    return &slots_[unwrapped & slots_.mask()];
  }
  const value_type* slot(std::uint64_t unwrapped) const noexcept {
    return &slots_[unwrapped & slots_.mask()];
  }

  // Home-neighborhood prefetch of key k, returning its hash for the
  // lane's step: the hop word plus the first two slot lines of the window
  // [b, b + H) of k's home bucket b. At sane load factors nearly every
  // resident of bucket b sits within the first dozen positions, so these
  // lines cover the scalar walk that resolves the operation. Always
  // inlined, so GCC cannot delete the prefetches (see detail::prefetch_rw).
  [[gnu::always_inline]] std::uint64_t prefetch_neighborhood_ro(key_type k) const {
    const std::uint64_t h = Traits::hash(k);
    const std::size_t b = h & slots_.mask();
    detail::prefetch_ro(&hop_[b]);
    detail::prefetch_ro(&slots_[b]);
    detail::prefetch_ro(slot(b + batch_detail::slots_per_line<value_type>));
    return h;
  }
  // Mutating ops also take the home segment's lock.
  [[gnu::always_inline]] std::uint64_t prefetch_neighborhood_rw(key_type k) const {
    const std::uint64_t h = Traits::hash(k);
    const std::size_t b = h & slots_.mask();
    detail::prefetch_rw(&hop_[b]);
    detail::prefetch_rw(&slots_[b]);
    detail::prefetch_rw(slot(b + batch_detail::slots_per_line<value_type>));
    detail::prefetch_rw(&locks_[segment(b)]);
    return h;
  }

  std::uint64_t hop_load(std::size_t b) const noexcept {
    return __atomic_load_n(&hop_[b], __ATOMIC_ACQUIRE);
  }
  void hop_store(std::size_t b, std::uint64_t bits) noexcept {
    __atomic_store_n(&hop_[b], bits, __ATOMIC_RELEASE);
  }

  std::uint32_t read_timestamp(std::size_t seg) const noexcept {
    if constexpr (WithTimestamps)
      return timestamps_[seg].load(std::memory_order_acquire);
    else
      return 0;
  }
  void bump_timestamp(std::size_t seg) noexcept {
    if constexpr (WithTimestamps)
      timestamps_[seg].fetch_add(1, std::memory_order_acq_rel);
  }

  // Scalar insert of v into its home bucket b, shared by insert() and
  // insert_block's handoff. Exactly one of insert_commits / insert_dups /
  // insert_aborts is recorded per call.
  void insert_impl(value_type v, std::size_t b) {
    obs::count(obs::counter::insert_ops);
    assert(!Traits::is_empty(v));
    const key_type k = Traits::key(v);
    std::lock_guard<spinlock> lg(locks_[segment(b)]);
    // Duplicate check through the hop bitmap (home segment is locked, so
    // bucket b's membership cannot change underneath us).
    if (std::uint64_t bits = hop_load(b)) {
      while (bits != 0) {
        const unsigned d = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        value_type& s = *slot(b + d);
        const value_type c = atomic_load(&s);
        if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), k)) {
          if constexpr (Traits::has_combine) atomic_store(&s, Traits::combine(c, v));
          obs::count(obs::counter::insert_dups);
          return;
        }
      }
    }
    // Claim the first empty slot at or after b with a CAS to BUSY (other
    // segments' inserters compete for the same empty slots).
    std::uint64_t free = b;  // unwrapped position
    for (;;) {
      const value_type c = atomic_load(slot(free));
      if (Traits::is_empty(c) && cas(slot(free), c, Traits::busy())) break;
      ++free;
      if (free - b >= capacity()) {
        obs::count(obs::counter::insert_aborts);
        throw table_full_error();
      }
    }
    // Hopscotch displacement: while the hole is out of range of b, move an
    // element from the window just below the hole into the hole.
    while (free - b >= kHopRange) {
      const std::uint64_t new_free = displace(free, segment(b));
      if (new_free == free) {
        // No movable candidate: the table needs resizing; undo the claim.
        atomic_store(slot(free), Traits::empty());
        obs::count(obs::counter::insert_aborts);
        throw table_full_error();
      }
      free = new_free;
    }
    atomic_store(slot(free), v);
    hop_store(b, hop_load(b) | (1ULL << (free - b)));
    obs::count(obs::counter::insert_commits);
  }

  void erase_impl(key_type kq, std::size_t b) {
    obs::count(obs::counter::erase_ops);
    std::lock_guard<spinlock> lg(locks_[segment(b)]);
    std::uint64_t bits = hop_load(b);
    while (bits != 0) {
      const unsigned d = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      value_type& s = *slot(b + d);
      const value_type c = atomic_load(&s);
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), kq)) {
        bump_timestamp(segment(b));
        atomic_store(&s, Traits::empty());
        hop_store(b, hop_load(b) & ~(1ULL << d));
        bump_timestamp(segment(b));
        obs::count(obs::counter::erase_hits);
        return;
      }
    }
  }

  value_type find_impl(key_type kq, std::size_t b) const {
    obs::count(obs::counter::find_ops);
    obs::tally slots(obs::counter::probe_slots);
    for (int attempt = 0; attempt < kFindRetries; ++attempt) {
      const std::uint32_t ts0 = read_timestamp(segment(b));
      std::uint64_t bits = hop_load(b);
      while (bits != 0) {
        const unsigned d = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const value_type c = atomic_load(slot(b + d));
        slots.add();
        if (!Traits::is_empty(c) && !bits_equal(c, Traits::busy()) &&
            Traits::key_equal(Traits::key(c), kq)) {
          obs::count(obs::counter::find_hits);
          return c;
        }
      }
      if constexpr (!WithTimestamps) return Traits::empty();
      if (read_timestamp(segment(b)) == ts0) return Traits::empty();
      // A displacement raced with us; retry, then fall through to the slow
      // path that scans the whole hop window regardless of bitmaps.
    }
    for (std::size_t d = 0; d < kHopRange; ++d) {
      const value_type c = atomic_load(slot(b + d));
      slots.add();
      if (!Traits::is_empty(c) && !bits_equal(c, Traits::busy()) &&
          Traits::key_equal(Traits::key(c), kq)) {
        obs::count(obs::counter::find_hits);
        return c;
      }
    }
    return Traits::empty();
  }

  // Tries to move one element from the window (free - H, free) into the
  // BUSY hole at `free`; returns the new (lower) hole position, or `free`
  // unchanged if nothing in the window can move. The caller holds the home
  // segment's lock; the moved element's own segment lock is taken with
  // try_lock to stay deadlock-free across segments.
  std::uint64_t displace(std::uint64_t free, std::size_t held_seg) {
    for (std::uint64_t hb = free - (kHopRange - 1); hb < free; ++hb) {
      const std::size_t seg = segment(hb);
      // Candidate bucket's bitmap; need its segment lock to mutate it.
      std::unique_lock<spinlock> ul;
      if (seg != held_seg) {
        ul = std::unique_lock<spinlock>(locks_[seg], std::try_to_lock);
        if (!ul.owns_lock()) continue;
      }
      const std::size_t hw = hb & slots_.mask();  // hb's hop word, wrapped
      std::uint64_t bits = hop_load(hw);
      while (bits != 0) {
        const unsigned d = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t s = hb + d;
        if (s >= free) break;  // bits are scanned lowest-first
        const value_type w = atomic_load(slot(s));
        if (Traits::is_empty(w) || bits_equal(w, Traits::busy())) continue;
        bump_timestamp(seg);
        atomic_store(slot(free), w);
        hop_store(hw, (hop_load(hw) & ~(1ULL << d)) | (1ULL << (free - hb)));
        atomic_store(slot(s), Traits::busy());
        bump_timestamp(seg);
        obs::count(obs::counter::hopscotch_displacements);
        return s;
      }
    }
    return free;
  }

  slot_array<Traits> slots_;
  std::vector<std::uint64_t> hop_;
  mutable std::vector<spinlock> locks_;
  std::vector<std::atomic<std::uint32_t>> timestamps_;
  mutable phase_runtime phase_;
};

}  // namespace phch
