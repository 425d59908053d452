// auto_phased_table: the paper's future-work item realized — a wrapper that
// uses room synchronizations to separate operations into phases
// *automatically*, so callers may mix inserts, deletes and finds freely from
// any thread. Operations of one class still run fully concurrently; the
// rooms serialize only the transitions between classes.
//
// phch_lint: not-a-table
// (Mixing operation classes is this wrapper's entire purpose, so it is
// exempt from the PHCH_REQUIRES_PHASE surface contract — DESIGN.md §15.)
//
// Phase epoch: each room entry announces its class to the wrapped table's
// phase_runtime (core/phase_runtime.h), so a room transition advances the
// same monotone epoch every scalar and batch scope uses — the room word in
// room_sync stays pure occupancy control, and the trace ledger shows one
// phase_begin event per actual transition (validated by `phch_trace -table
// auto`). The announcement is idempotent with the operation's own scope
// (same class, no second edge), and for elements()/count() — which scan raw
// slots without entering an operation scope — it is the only announcement.
//
// Determinism caveat (inherent, not an implementation artifact): automatic
// phasing makes mixing *safe*, but the induced phase boundaries depend on
// arrival timing, so a mixed workload is NOT deterministic — exactly why the
// paper leaves phase separation to the program structure when determinism is
// the goal. With phases separated by the caller (the deterministic use), the
// wrapper adds only the room-entry fast path per operation (measured in
// bench_ablation).
#pragma once

#include <vector>

#include "phch/core/deterministic_table.h"
#include "phch/core/table_concepts.h"
#include "phch/parallel/room_sync.h"

namespace phch {

// The wrapped table must be a phase-concurrent table over one flat slot
// array: phase_table is what the room discipline protects (rooms map 1:1
// onto the operation classes of Definition 1), deletable_table supplies the
// erase room, and open_addressing_table provides the raw_slots() view the
// serial elements()/count() scans use. A table that is not phase-concurrent
// (or hides its storage) is rejected at compile time rather than silently
// wrapped with the wrong synchronization.
template <typename Table>
  requires deletable_table<Table> && open_addressing_table<Table>
class auto_phased_table {
 public:
  using traits = typename Table::traits;
  using value_type = typename Table::value_type;
  using key_type = typename Table::key_type;

  explicit auto_phased_table(std::size_t min_capacity)
      : table_(min_capacity), rooms_(3) {}

  std::size_t capacity() const noexcept { return table_.capacity(); }

  void insert(value_type v) {
    room_sync::guard g(rooms_, kInsertRoom);
    note_room(op_kind::insert);
    table_.insert(v);
  }

  void erase(key_type k) {
    room_sync::guard g(rooms_, kEraseRoom);
    note_room(op_kind::erase);
    table_.erase(k);
  }

  value_type find(key_type k) const {
    room_sync::guard g(rooms_, kQueryRoom);
    note_room(op_kind::query);
    return table_.find(k);
  }

  bool contains(key_type k) const {
    room_sync::guard g(rooms_, kQueryRoom);
    note_room(op_kind::query);
    return table_.contains(k);
  }

  // elements() and count() scan the slots *serially* here: running a
  // parallel job while holding a room could deadlock against another user
  // thread that occupies the scheduler while waiting for this room. (With
  // caller-separated phases, use the underlying table's parallel
  // elements().)
  std::vector<value_type> elements() const {
    room_sync::guard g(rooms_, kQueryRoom);
    note_room(op_kind::query);
    std::vector<value_type> out;
    const value_type* slots = table_.raw_slots();
    for (std::size_t s = 0; s < table_.capacity(); ++s) {
      if (!traits::is_empty(slots[s])) out.push_back(slots[s]);
    }
    return out;
  }

  // Count is a query (shares the find/elements room).
  std::size_t count() const {
    room_sync::guard g(rooms_, kQueryRoom);
    note_room(op_kind::query);
    std::size_t c = 0;
    const value_type* slots = table_.raw_slots();
    for (std::size_t s = 0; s < table_.capacity(); ++s) c += !traits::is_empty(slots[s]);
    return c;
  }

  // Access to the underlying table at a quiescent point (caller's duty).
  Table& underlying() noexcept { return table_; }
  const Table& underlying() const noexcept { return table_; }

 private:
  static constexpr int kInsertRoom = 0;
  static constexpr int kEraseRoom = 1;
  static constexpr int kQueryRoom = 2;

  // Announces the room's class to the wrapped table's phase epoch. The
  // first entrant after a room transition wins the exactly-once edge;
  // same-room entrants see one relaxed load.
  void note_room(op_kind k) const {
    if constexpr (phase_epoch_table<Table>) table_.phase_rt().on_op(k);
  }

  Table table_;
  mutable room_sync rooms_;
};

}  // namespace phch
