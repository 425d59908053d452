// Sequential baselines used throughout the paper's evaluation:
//  - serial_table_hi (serialHash-HI): the Blelloch–Golovin strongly
//    history-independent linear probing table (FOCS'07) — prioritized
//    probing with swaps on insert, recursive hole-filling on delete. Its
//    layout is a pure function of the key set.
//  - serial_table_hd (serialHash-HD): standard linear probing — first-empty
//    insert, backward-shift delete. Layout depends on operation history.
//
// Both share the deterministic tables' Traits policies so they can be
// compared slot-for-slot in tests.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "phch/core/entry_traits.h"
#include "phch/core/table_common.h"

namespace phch {

template <typename Traits = int_entry<>>
class serial_table_hi {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  explicit serial_table_hi(std::size_t min_capacity) : slots_(min_capacity) {}

  std::size_t capacity() const noexcept { return slots_.capacity(); }
  std::size_t count() const { return slots_.count(); }
  void clear() { slots_.clear(); }

  void insert(value_type v) {
    assert(!Traits::is_empty(v));
    std::size_t i = home(Traits::key(v));
    std::size_t advances = 0;
    while (!Traits::is_empty(v)) {
      value_type& c = slots_[i];
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), Traits::key(v))) {
        if constexpr (Traits::has_combine) c = Traits::combine(c, v);
        return;
      }
      if (Traits::is_empty(c) ||
          Traits::priority_less(Traits::key(c), Traits::key(v))) {
        std::swap(c, v);  // v takes the slot; the displaced element continues
      }
      i = next(i);
      if (++advances > capacity()) throw table_full_error();
    }
  }

  void erase(key_type kq) {
    // Locate kq; the ordering invariant allows stopping early.
    std::size_t i = home(kq);
    for (;;) {
      const value_type c = slots_[i];
      if (Traits::is_empty(c)) return;
      if (!Traits::priority_less(kq, Traits::key(c))) {
        if (!Traits::key_equal(Traits::key(c), kq)) return;  // not present
        break;
      }
      i = next(i);
    }
    // Recursive hole filling: replace with the nearest later element that
    // hashes at-or-before the hole, until the replacement is ⊥.
    for (;;) {
      // Find replacement for the hole at i.
      std::size_t j = i;
      std::size_t dist = 0;
      value_type w;
      for (;;) {
        j = next(j);
        ++dist;
        w = slots_[j];
        if (Traits::is_empty(w)) break;
        // home of w relative to the hole: distance from home(w) to j,
        // measured backward; if that distance >= dist then w hashed
        // at-or-before i and may move into the hole.
        const std::size_t back = (j - home(Traits::key(w))) & slots_.mask();
        if (back >= dist) break;
      }
      slots_[i] = w;
      if (Traits::is_empty(w)) return;
      i = j;  // continue filling the hole left by w
    }
  }

  value_type find(key_type kq) const {
    std::size_t i = home(kq);
    for (;;) {
      const value_type c = slots_[i];
      if (Traits::is_empty(c)) return Traits::empty();
      if (!Traits::priority_less(kq, Traits::key(c))) {
        return Traits::key_equal(Traits::key(c), kq) ? c : Traits::empty();
      }
      i = next(i);
    }
  }

  bool contains(key_type kq) const { return !Traits::is_empty(find(kq)); }

  // The shared pack-based ELEMENTS() (table_common.h); slot order, so the
  // output is a deterministic function of the layout.
  std::vector<value_type> elements() const { return slots_.elements(); }

  const value_type* raw_slots() const noexcept { return slots_.data(); }

 private:
  std::size_t home(key_type k) const { return Traits::hash(k) & slots_.mask(); }
  std::size_t next(std::size_t i) const noexcept { return (i + 1) & slots_.mask(); }

  slot_array<Traits> slots_;
};

template <typename Traits = int_entry<>>
class serial_table_hd {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  explicit serial_table_hd(std::size_t min_capacity) : slots_(min_capacity) {}

  std::size_t capacity() const noexcept { return slots_.capacity(); }
  std::size_t count() const { return slots_.count(); }
  void clear() { slots_.clear(); }

  void insert(value_type v) {
    assert(!Traits::is_empty(v));
    std::size_t i = home(Traits::key(v));
    std::size_t advances = 0;
    for (;;) {
      value_type& c = slots_[i];
      if (Traits::is_empty(c)) {
        c = v;
        return;
      }
      if (Traits::key_equal(Traits::key(c), Traits::key(v))) {
        if constexpr (Traits::has_combine) c = Traits::combine(c, v);
        return;
      }
      i = next(i);
      if (++advances > capacity()) throw table_full_error();
    }
  }

  void erase(key_type kq) {
    std::size_t i = home(kq);
    for (;;) {
      const value_type c = slots_[i];
      if (Traits::is_empty(c)) return;
      if (Traits::key_equal(Traits::key(c), kq)) break;
      i = next(i);
    }
    // Standard backward-shift deletion.
    for (;;) {
      std::size_t j = i;
      std::size_t dist = 0;
      value_type w;
      for (;;) {
        j = next(j);
        ++dist;
        w = slots_[j];
        if (Traits::is_empty(w)) break;
        const std::size_t back = (j - home(Traits::key(w))) & slots_.mask();
        if (back >= dist) break;
      }
      slots_[i] = w;
      if (Traits::is_empty(w)) return;
      i = j;
    }
  }

  value_type find(key_type kq) const {
    std::size_t i = home(kq);
    for (;;) {
      const value_type c = slots_[i];
      if (Traits::is_empty(c)) return Traits::empty();
      if (Traits::key_equal(Traits::key(c), kq)) return c;
      i = next(i);
    }
  }

  bool contains(key_type kq) const { return !Traits::is_empty(find(kq)); }

  std::vector<value_type> elements() const { return slots_.elements(); }

  const value_type* raw_slots() const noexcept { return slots_.data(); }

 private:
  std::size_t home(key_type k) const { return Traits::hash(k) & slots_.mask(); }
  std::size_t next(std::size_t i) const noexcept { return (i + 1) & slots_.mask(); }

  slot_array<Traits> slots_;
};

}  // namespace phch
