// The policy-based open-addressing core behind the linear-probing tables.
//
// The paper's two linear-probing variants are one algorithm with one
// policy choice, the ordering policy below. Both delete the same way: hole
// filling by back-shifting (FindReplacement, Figure 1 lines 11–24), which
// repairs the cluster in place, so the table carries no garbage and
// prioritized order keeps the canonical layout of §3 across deletes.
//
//   ordering policy   what a probe may conclude from an occupant
//     prioritized_order  slots keep the history-independent ordering
//                        invariant (Definition 2): an insert displaces
//                        lower-priority occupants, and probes stop early at
//                        the first not-higher-priority slot (linearHash-D,
//                        §3, Figure 1).
//     arrival_order      first-empty-slot placement, so the layout depends
//                        on arrival order; probes stop only at ⊥ or an
//                        equal key (linearHash-ND, after Gao et al.).
//
// probe_engine owns everything the policies share: the slot array, the
// probe/CAS loops (scalar entry points plus the block members, whose insert
// and erase run the same loops from a prefetched home), capacity handling,
// phase-checking scopes, and the ELEMENTS() pack. Like the
// paper's tables it keeps no element count: a scalar insert or erase
// commits with one CAS, and count() scans. The concrete tables are thin
// aliases:
//
//   deterministic_table = probe_engine<prioritized_order>
//   nd_linear_table     = probe_engine<arrival_order>
//
// The engine also distills the ordering policy into three static probe
// classifiers — classify_find / insert_scan_stop / erase_scan_stop — which
// the scalar loops drive; find_block's pipelined ring drives classify_find
// too, so both policies get software-pipelined finds for free.
//
// Telemetry (obs/telemetry.h): each scalar op (insert_impl, erase_impl,
// find) declares exactly one obs::op_tally. The loop bumps its slot and CAS
// fields, each return path sets its outcome, and the tally flushes all of
// it, with the op's probe-depth sample, to the caller's stripe once. The
// block inserts and erases run those same bodies; find_block tallies per
// block instead. Compiled out, both are dead stores.
// phch_lint: table-header
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/entry_traits.h"
#include "phch/core/phase_runtime.h"
#include "phch/core/table_common.h"
#include "phch/obs/histogram.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/atomics.h"

namespace phch {

// Outcome of inspecting one slot during a probe for a key: keep scanning,
// found the key, or proved it absent. classify_find returns it; the scalar
// find and find_block both drive their loops through it.
enum class probe_verdict : unsigned char { advance, hit, miss };

// --- ordering policies ------------------------------------------------------

// History-independent prioritized linear probing (the paper's contribution).
struct prioritized_order {
  static constexpr bool ordered_probes = true;
};

// First-fit placement, layout depends on arrival order (the ND baseline).
struct arrival_order {
  static constexpr bool ordered_probes = false;
};

template <typename Traits, typename Order>
class probe_engine {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  // Capacity is rounded up to a power of two. The caller must keep the
  // table from filling (paper precondition); `count()` reports usage.
  explicit probe_engine(std::size_t min_capacity)
      : slots_(min_capacity) {}

  std::size_t capacity() const noexcept { return slots_.capacity(); }

  // Live entries, by parallel scan.
  std::size_t count() const { return slots_.count(); }

  void clear() { slots_.clear(); }

  // --- probe classification (the ordering policy, distilled) ---------------
  //
  // These three statics are the whole ordering policy as seen by a probe
  // loop. The scalar operations and find_block's ring both consume them,
  // so scalar and batched execution agree by construction.

  // Verdict for one slot during a find for kq.
  static probe_verdict classify_find(value_type c, key_type kq) noexcept {
    if (Traits::is_empty(c)) return probe_verdict::miss;
    if constexpr (Order::ordered_probes) {
      // Ordering invariant: the first not-higher-priority slot decides.
      if (Traits::priority_less(kq, Traits::key(c))) return probe_verdict::advance;
      return Traits::key_equal(Traits::key(c), kq) ? probe_verdict::hit
                                                   : probe_verdict::miss;
    } else {
      if (Traits::key_equal(Traits::key(c), kq)) return probe_verdict::hit;
      return probe_verdict::advance;  // another key: keep scanning
    }
  }

  // True iff an insert of v probing slot contents c has reached a potential
  // commit point (empty slot, duplicate key, or — under the ordering
  // invariant — a not-higher-priority occupant to displace). While false,
  // the probe advances without writing.
  static bool insert_scan_stop(value_type c, value_type v) noexcept {
    if (Traits::is_empty(c)) return true;
    if constexpr (Order::ordered_probes) {
      return !Traits::priority_less(Traits::key(v), Traits::key(c));
    } else {
      return Traits::key_equal(Traits::key(c), Traits::key(v));
    }
  }

  // True iff the forward scan of an erase for kq stops at slot contents c;
  // the downward CAS scan runs from there.
  static bool erase_scan_stop(value_type c, key_type kq) noexcept {
    if (Traits::is_empty(c)) return true;
    if constexpr (Order::ordered_probes) {
      return !Traits::priority_less(kq, Traits::key(c));
    } else {
      return false;  // without the invariant only ⊥ stops the scan
    }
  }

  // --- insert ---------------------------------------------------------------

  // INSERT (Figure 1, lines 1-10 for prioritized order; first-fit
  // otherwise). Safe to call concurrently with other inserts only. No return
  // value: commutativity is with respect to table state, and "was it new?"
  // is not well defined under concurrent merging.
  void insert(value_type v) {
    phase_runtime::scope guard(phase_, op_kind::insert);
    insert_impl(v, home(Traits::key(v)));
  }

 private:
  // CAS with telemetry accounting; identical to phch::cas when obs is off.
  static bool cas_tallied(obs::op_tally& t, value_type* p, value_type expect,
                          value_type desired) noexcept {
    ++t.cas;
    if (cas(p, expect, desired)) return true;
    ++t.cas_failed;
    return false;
  }

  // The Figure-1 insert loop from v's home slot i, run inside the caller's
  // insert scope (the op's own, or insert_block's).
  void insert_impl(value_type v, std::size_t i) {
    assert(!Traits::is_empty(v));
    obs::op_tally tally(obs::counter::insert_ops);
    const std::size_t cap = capacity();
    std::size_t advances = 0;
    for (;;) {
      const value_type c = atomic_load(&slots_[i]);
      ++tally.slots;
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), Traits::key(v))) {
        // Duplicate key: merge values per the traits' combine function.
        if constexpr (!Traits::has_combine) {
          tally.set_outcome(obs::counter::insert_dups);
          return;  // key already present
        } else if constexpr (Order::ordered_probes) {
          // Whole-slot CAS merge; a failed CAS means another insert changed
          // the slot — re-examine it (it may no longer hold this key).
          const value_type merged = Traits::combine(c, v);
          if (bits_equal(merged, c) || cas_tallied(tally, &slots_[i], c, merged)) {
            tally.set_outcome(obs::counter::insert_dups);
            return;
          }
          continue;
        } else {
          // Arrival order with back-shift: a stored entry never moves during
          // an insert phase, so only the value word is merged (in place).
          combine_slot(tally, &slots_[i], c, v);
          tally.set_outcome(obs::counter::insert_dups);
          return;
        }
      } else if (!insert_scan_stop(c, v)) {
        // The occupant keeps the slot; advance (below).
      } else if (cas_tallied(tally, &slots_[i], c, v)) {
        if constexpr (Order::ordered_probes) {
          // The displaced (strictly lower priority) element, possibly ⊥, is
          // now this operation's responsibility.
          if (Traits::is_empty(c)) {
            tally.set_outcome(obs::counter::insert_commits);
            return;
          }
          v = c;  // carry the displaced element onward (advance below)
        } else {
          tally.set_outcome(obs::counter::insert_commits);
          return;
        }
      } else {
        continue;  // CAS failure: re-read the same slot and try again
      }
      i = next(i);
      if (++advances > cap) throw table_full_error();
    }
  }

 public:
  // --- erase ----------------------------------------------------------------

  // DELETE (Figure 1, lines 25-41). Safe to call concurrently with other
  // erases only. Removes the (single) entry whose key equals `kq`, filling
  // the hole history-independently via FindReplacement.
  void erase(key_type kq) {
    phase_runtime::scope guard(phase_, op_kind::erase);
    erase_impl(kq, home(kq));
  }

 private:
  // The Figure-1 delete loop from kq's home slot h, run inside the caller's
  // erase scope (the op's own, or erase_block's).
  void erase_impl(key_type kq, std::size_t h) {
    obs::op_tally tally(obs::counter::erase_ops);
    const std::size_t cap = capacity();
    // Unwrapped coordinates, offset by one capacity so they never
    // underflow. Initial forward scan (lines 27-29): past every slot the
    // ordering policy says could still precede the key.
    std::uint64_t i = cap + h;
    std::uint64_t k = i;
    for (;;) {
      ++tally.slots;
      if (erase_scan_stop(atomic_load(slot(k)), kq)) break;
      ++k;
      if (k - i > cap) throw table_full_error();
    }
    // Downward scan (lines 30-41), from k down to the query key's home i.
    while (k >= i) {
      const value_type c = atomic_load(slot(k));
      ++tally.slots;
      if (Traits::is_empty(c) || !Traits::key_equal(Traits::key(c), kq)) {
        --k;
        continue;
      }
      const auto [j, w] = find_replacement(tally, k);
      if (cas_tallied(tally, slot(k), c, w)) {
        if (!Traits::is_empty(w)) {
          // A second copy of w now exists; this operation becomes an
          // outstanding delete for w (lines 36-39).
          kq = Traits::key(w);
          k = j;
          i = unwrapped_home(w, j);
        } else {
          tally.set_outcome(obs::counter::erase_hits);
          return;
        }
      } else {
        --k;  // the copy we saw was deleted or moved down; keep scanning
      }
    }
  }

 public:
  // --- find / enumeration ---------------------------------------------------

  // FIND (Figure 1, lines 42-46). Safe concurrently with finds/elements.
  // Returns the stored value for key kq, or Traits::empty() if absent.
  // Under prioritized order the probe stops at the first slot whose priority
  // is not higher than kq — absent keys can be cheaper than in standard
  // linear probing.
  value_type find(key_type kq) const {
    phase_runtime::scope guard(phase_, op_kind::query);
    obs::op_tally tally(obs::counter::find_ops);
    const std::size_t cap = capacity();
    std::size_t i = home(kq);
    std::size_t advances = 0;
    for (;;) {
      const value_type c = atomic_load(&slots_[i]);
      ++tally.slots;
      switch (classify_find(c, kq)) {
        case probe_verdict::miss:
          return Traits::empty();
        case probe_verdict::hit:
          tally.set_outcome(obs::counter::find_hits);
          return c;
        case probe_verdict::advance:
          break;
      }
      i = next(i);
      if (++advances > cap) throw table_full_error();
    }
  }

  bool contains(key_type kq) const {
    return !Traits::is_empty(find(kq));
  }

  // ELEMENTS(): the occupied slots packed in slot order. Under prioritized
  // order the result is a deterministic function of the table's contents
  // (history independence). Same phase class as find.
  std::vector<value_type> elements() const {
    phase_runtime::scope guard(phase_, op_kind::query);
    return slots_.elements();
  }

  // Raw slot view for tests (layout/ordering-invariant verification).
  const value_type* raw_slots() const noexcept { return slots_.data(); }

  // The table's single phase-state word (core/phase_runtime.h): current
  // operation class plus the monotone phase epoch. Exposed so the tests and
  // the trace-ledger validation in tools/phch_trace read the same state the
  // operation scopes advance.
  phase_runtime& phase_rt() const noexcept { return phase_; }

  // --- block members (core/batch_ops.h) -------------------------------------
  //
  // Serial within a block; the free batch functions supply the cross-block
  // parallelism. Each opens one phase scope for the block and hashes each
  // key exactly once.
  //
  // find_block runs its ops through run_batch_ring. Linear chains are
  // *sequential*, so a probe only risks a cache miss when it crosses into
  // the next 64-byte line: each step scans to the end of the current line
  // before yielding its lane, so rotation (and a prefetch) happens per line
  // crossed, not per slot. A probe that sweeps more than `capacity` slots
  // has wrapped the table: the table broke the never-full precondition and
  // the step throws, like the scalar loop.
  //
  // Each slot load is a seq_cst atomic, which the compiler treats as a
  // barrier for every variable whose address escapes, and a by-reference
  // capture is one. So a step scans with by-value captures and counts its
  // slots in a local, settling the per-block tallies once per step. The
  // tallies are obs::tally, an empty class when telemetry is compiled out,
  // so the steps' references to them then cost nothing.

  // Pipelined finds: the whole read-only probe scan rotates line by line.
  template <typename K>
  void find_block(const K* keys, std::size_t n, value_type* out) const {
    phase_runtime::scope guard(phase_, op_kind::query);
    const value_type* slots = slots_.data();
    const std::size_t cap = capacity();
    const std::size_t mask = slots_.mask();
    constexpr std::size_t line = batch_detail::slots_per_line<value_type>;
    struct lane {
      std::size_t idx;       // position in the block (where the result goes)
      std::size_t slot;      // current probe position
      std::size_t advances;  // probe length so far (table-full detection)
      key_type kq;
    };
    obs::tally t_slots(obs::counter::batch_probe_slots);
    obs::tally t_hits(obs::counter::find_hits);
    obs::hist_accum t_depth;
    batch_detail::run_batch_ring<lane>(
        n,
        [keys, slots, mask](lane& o, std::size_t i) {
          const key_type kq = keys[i];
          o = lane{i, static_cast<std::size_t>(Traits::hash(kq)) & mask, 0, kq};
          detail::prefetch_ro(&slots[o.slot]);
        },
        [&, slots, mask, cap, out](lane& o) {
          std::uint64_t scanned = 0;
          value_type result = Traits::empty();
          bool done = true;
          for (;;) {  // the rest of the current line is resident
            const value_type c = atomic_load(&slots[o.slot]);
            ++scanned;
            const probe_verdict verdict = classify_find(c, o.kq);
            if (verdict != probe_verdict::advance) {
              if (verdict == probe_verdict::hit) result = c;
              break;
            }
            o.slot = (o.slot + 1) & mask;
            if (++o.advances > cap) throw table_full_error();
            if ((o.slot & (line - 1)) == 0) {
              done = false;
              break;
            }
          }
          t_slots.add(scanned);
          if (!done) {
            detail::prefetch_ro(&slots[o.slot]);  // crossed into the next line
            return false;
          }
          if (!Traits::is_empty(result)) t_hits.add();
          // Probe-depth ledger: block finds never reach a scalar loop, so
          // their depth sample (advances plus the resolving load) is noted
          // here and flushed with the other tallies.
          t_depth.note(o.advances + 1);
          out[o.idx] = result;
          return true;
        });
    obs::count(obs::counter::find_ops, n);
    obs::record_probe_depth(t_depth);
  }

  // Block inserts and erases run through run_handoff_block: a lane's start
  // hashes the key and prefetches its home line, and its step runs the
  // Figure-1 loop (insert_impl / erase_impl) from that home one rotation
  // later, so every block op is exactly a scalar op.
  template <typename V>
  void insert_block(const V* values, std::size_t n) {
    phase_runtime::scope guard(phase_, op_kind::insert);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_home(Traits::key(values[i])); },
        [&](std::size_t i, std::uint64_t h) {
          insert_impl(values[i], h & slots_.mask());
        });
  }

  template <typename K>
  void erase_block(const K* keys, std::size_t n) {
    phase_runtime::scope guard(phase_, op_kind::erase);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_home(keys[i]); },
        [&](std::size_t i, std::uint64_t h) { erase_impl(keys[i], h & slots_.mask()); });
  }

 private:
  std::size_t home(key_type k) const { return Traits::hash(k) & slots_.mask(); }

  // A mutating block lane's first touch: hash k once and prefetch its home
  // line for writing; the lane's step runs from the returned hash. Always
  // inlined, so GCC cannot delete the prefetch (see detail::prefetch_rw).
  [[gnu::always_inline]] std::uint64_t prefetch_home(key_type k) const {
    const std::uint64_t h = Traits::hash(k);
    detail::prefetch_rw(&slots_[h & slots_.mask()]);
    return h;
  }

  std::size_t next(std::size_t i) const noexcept { return (i + 1) & slots_.mask(); }
  value_type* slot(std::uint64_t unwrapped) noexcept {
    return &slots_[unwrapped & slots_.mask()];
  }
  const value_type* slot(std::uint64_t unwrapped) const noexcept {
    return &slots_[unwrapped & slots_.mask()];
  }

  // Unwrapped home position of element v observed at unwrapped position j:
  // the representative of h(key(v)) in the window (j - capacity, j].
  std::uint64_t unwrapped_home(value_type v, std::uint64_t j) const {
    const std::uint64_t raw = home(Traits::key(v));
    return j - ((j - raw) & slots_.mask());
  }

  // FINDREPLACEMENT (Figure 1, lines 11-24): locate the element that must
  // fill the hole at unwrapped position k. Scans up to the first candidate
  // that is ⊥ or hashes at-or-before k, then re-scans down because
  // concurrent deletes only move elements toward lower positions. The
  // replacement choice depends only on hash homes, never priorities, which
  // is why both ordering policies share it.
  std::pair<std::uint64_t, value_type> find_replacement(obs::op_tally& tally,
                                                        std::uint64_t k) const {
    const std::size_t cap = capacity();
    std::uint64_t j = k;
    value_type w;
    do {
      ++j;
      if (j - k > cap) throw table_full_error();
      w = atomic_load(slot(j));
      ++tally.slots;
    } while (!Traits::is_empty(w) && unwrapped_home(w, j) > k);
    for (std::uint64_t m = j - 1; m > k; --m) {
      const value_type w2 = atomic_load(slot(m));
      ++tally.slots;
      if (Traits::is_empty(w2) || unwrapped_home(w2, m) <= k) {
        w = w2;
        j = m;
      }
    }
    return {j, w};
  }

  // In-place duplicate-key merge for arrival order: only the value word
  // changes, with hardware xadd when the combine function is + (the paper's
  // linearHash-ND optimization for edge contraction).
  static void combine_slot(obs::op_tally& tally, value_type* p, value_type seen,
                           value_type incoming) noexcept {
    if constexpr (requires { Traits::combine_inplace(p, incoming); }) {
      Traits::combine_inplace(p, incoming);
    } else {
      value_type cur = seen;
      for (;;) {
        const value_type merged = Traits::combine(cur, incoming);
        if (bits_equal(merged, cur) || cas_tallied(tally, p, cur, merged)) return;
        cur = atomic_load(p);
      }
    }
  }

  slot_array<Traits> slots_;
  mutable phase_runtime phase_;
};

}  // namespace phch
