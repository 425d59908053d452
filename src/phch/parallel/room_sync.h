// Room synchronizations (Blelloch, Cheng & Gibbons, Theory Comput. Syst.
// 2003) — the mechanism the paper's conclusion names for *automatically*
// separating hash table operations into phases.
//
// A room_sync object manages R mutually exclusive "rooms". Any number of
// threads may occupy one room concurrently; threads asking for a different
// room wait until the current room empties. Fairness: when occupants drain,
// the next room is the lowest-numbered one with waiters after the current
// room (cyclic order), so no room starves while demand rotates.
//
// Usage:
//     room_sync rooms(3);
//     { room_sync::guard g(rooms, kInsertRoom); table.insert(x); }
//
// The implementation packs (current room, occupancy) into one atomic word:
//  - enter: CAS occupancy+1 if the current room matches (or the building is
//    empty, claiming it for the requested room); otherwise register as a
//    waiter and spin.
//  - exit: decrement occupancy; the thread that drops it to zero elects the
//    next room among waiters and opens it.
// Entering is lock-free when the requested room is already open.
//
// The packed word here is *occupancy control only* — it decides who may run,
// not what phase a table is in. Phase identity (current class + monotone
// epoch) lives in the table's phase_runtime (core/phase_runtime.h);
// auto_phased_table advances that epoch at each room transition, so the
// rooms and the phase ledger stay in lockstep without a second phase word.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <thread>
#include <vector>

#include "phch/obs/histogram.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/spinlock.h"
#include "phch/utils/phase_caps.h"

namespace phch {

// A TSA capability held *shared*: any number of threads occupy the open
// room concurrently (what the capability cannot express — occupants of a
// different room excluding each other — is the runtime's job). The
// annotations catch the structural misuses: exiting a room that was never
// entered, re-entering while already inside, and leaking an occupancy.
class PHCH_CAPABILITY("room") room_sync {
 public:
  explicit room_sync(int num_rooms)
      : num_rooms_(num_rooms), waiters_(static_cast<std::size_t>(num_rooms)) {
    assert(num_rooms >= 1);
    for (auto& w : waiters_) w.store(0, std::memory_order_relaxed);
  }

  room_sync(const room_sync&) = delete;
  room_sync& operator=(const room_sync&) = delete;

  int num_rooms() const noexcept { return num_rooms_; }

  // Blocks until `room` is open, then occupies it. The wait escalates from
  // pause to yield: under the work-stealing pool there can be more runnable
  // threads than cores, and a hard spin would starve the room's occupants
  // of the timeslices they need to leave.
  void enter(int room) PHCH_ACQUIRES_ROOM() {
    assert(room >= 0 && room < num_rooms_);
    // Fast path: the room is open (or the building is empty).
    if (try_enter(room)) return;
    obs::count(obs::counter::room_waits);  // once per blocked enter, not per spin
    obs::hist_timer timer(obs::hist::room_wait_ns);
    waiters_[static_cast<std::size_t>(room)].fetch_add(1, std::memory_order_acq_rel);
    int spins = 0;
    while (!try_enter(room)) {
      if (++spins < 64) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    waiters_[static_cast<std::size_t>(room)].fetch_sub(1, std::memory_order_acq_rel);
  }

  // Leaves the current room. The last occupant hands the building to the
  // next room with waiters (cyclic scan from the current room).
  void exit() PHCH_RELEASES_ROOM() {
    const std::uint64_t prev = state_.fetch_sub(1, std::memory_order_acq_rel);
    assert((prev & kCountMask) >= 1);
    if ((prev & kCountMask) != 1) return;
    // We *may* have been the last occupant; if the building is now empty,
    // rotate to a waiting room so a stream of entries to the current room
    // cannot starve others.
    const int cur = static_cast<int>(prev >> kRoomShift);
    for (int step = 1; step <= num_rooms_; ++step) {
      const int next = (cur + step) % num_rooms_;
      if (next != cur &&
          waiters_[static_cast<std::size_t>(next)].load(std::memory_order_acquire) > 0) {
        // Swing the door: only succeeds if still empty and unchanged.
        std::uint64_t expected = make_state(cur, 0);
        state_.compare_exchange_strong(expected, make_state(next, 0),
                                       std::memory_order_acq_rel);
        return;
      }
    }
  }

  // RAII occupancy.
  class PHCH_SCOPED_CAPABILITY guard {
   public:
    guard(room_sync& rs, int room) PHCH_ACQUIRES_ROOM(rs) : rs_(rs) {
      rs_.enter(room);
    }
    ~guard() PHCH_RELEASE() { rs_.exit(); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

   private:
    room_sync& rs_;
  };

 private:
  static constexpr int kRoomShift = 48;
  static constexpr std::uint64_t kCountMask = (1ULL << kRoomShift) - 1;

  static std::uint64_t make_state(int room, std::uint64_t count) noexcept {
    return (static_cast<std::uint64_t>(room) << kRoomShift) | count;
  }

  bool try_enter(int room) noexcept PHCH_TRY_ACQUIRE(true) {
    std::uint64_t s = state_.load(std::memory_order_acquire);
    for (;;) {
      const int cur = static_cast<int>(s >> kRoomShift);
      const std::uint64_t count = s & kCountMask;
      if (cur != room && count != 0) return false;  // another room is occupied
      // Either our room is open, or the building is empty and we claim it.
      if (state_.compare_exchange_weak(s, make_state(room, count + 1),
                                       std::memory_order_acq_rel)) {
        return true;
      }
      // s reloaded by compare_exchange_weak; retry.
    }
  }

  int num_rooms_;
  std::atomic<std::uint64_t> state_{0};
  std::vector<std::atomic<std::uint32_t>> waiters_;
};

}  // namespace phch
