// phase_runtime: the one phase-state word every table carries.
//
// The paper's Definition 1 partitions operations into classes
//     S = { {insert}, {delete}, {find, elements} }
// and requires classes not to overlap in time; the boundaries between
// classes are the program-visible quiescent points everything else in this
// repo leans on. This header is the only place that state lives: one
// per-table state machine,
//
//     state = (phase epoch << 2) | current operation class
//
// packed into one cache line. (The compile-time mirror of this word is the
// phase-capability surface in utils/phase_caps.h; see DESIGN.md §15 for how
// the two halves divide the contract. state_'s orderings are pinned in
// tools/atomics_contract.tsv.)
//
// Every operation — scalar, batched, checked or unchecked — announces its
// class through on_op(). Same-class operations see one relaxed load and a
// compare; the first operation of a *different* class wins a CAS that
// advances the epoch, and that CAS winner is the exactly-once transition
// edge: it ticks obs::counter::phase_transitions and records the
// phase_begin trace event directly, so the tracer is fed from the state
// machine instead of from a parallel atomic that could disagree with it.
//
// The epoch is not just observational: it increases monotonically by
// exactly one per class transition, so "the table changed phase" is a
// checkable predicate.
//
// The phase policies in core/phase_guard.h are thin views over this class:
// unchecked_phases is the runtime alone, checked_phases adds the in-flight
// violation detector.
#pragma once

#include <atomic>
#include <cstdint>

#include "phch/obs/trace.h"

namespace phch {

// Operation classes of Definition 1. find/contains/elements share `query`.
enum class op_kind : std::uint8_t { insert = 0, erase = 1, query = 2 };

inline const char* op_kind_name(op_kind k) noexcept {
  switch (k) {
    case op_kind::insert: return "insert";
    case op_kind::erase: return "erase";
    case op_kind::query: return "query";
  }
  return "?";
}

class alignas(64) phase_runtime {
 public:
  // Class value meaning "no operation observed yet" (fresh table).
  static constexpr std::uint64_t kIdle = 3;

  phase_runtime() noexcept = default;
  phase_runtime(const phase_runtime&) = delete;
  phase_runtime& operator=(const phase_runtime&) = delete;

  // Announces the start of an operation of class `k`. Returns true iff this
  // call performed the class transition (advanced the epoch) — the
  // exactly-once edge. Concurrent same-class announcers all see the class
  // already set (either initially or after one of them won the CAS) and
  // return false having done one relaxed load.
  bool on_op(op_kind k) noexcept {
    const auto cls = static_cast<std::uint64_t>(k);
    std::uint64_t s = state_.load(std::memory_order_relaxed);
    for (;;) {
      if ((s & kClassMask) == cls) return false;  // same phase: no edge
      const std::uint64_t next = (((s >> kClassBits) + 1) << kClassBits) | cls;
      if (state_.compare_exchange_weak(s, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        on_transition(static_cast<std::uint8_t>(cls), next >> kClassBits);
        return true;
      }
      // `s` was reloaded by the failed CAS; if a racing operation already
      // advanced into our class, the loop exits through the equality check.
    }
  }

  // Monotonically increasing count of class transitions (0 on a fresh
  // table; +1 per insert<->erase<->query boundary, including the first
  // operation ever, which transitions from idle).
  std::uint64_t epoch() const noexcept {
    return state_.load(std::memory_order_relaxed) >> kClassBits;
  }

  // The class currently announced (kIdle before the first operation).
  std::uint64_t current_class() const noexcept {
    return state_.load(std::memory_order_relaxed) & kClassMask;
  }

 private:
  static constexpr std::uint64_t kClassBits = 2;
  static constexpr std::uint64_t kClassMask = (1ULL << kClassBits) - 1;

  void on_transition(std::uint8_t cls, std::uint64_t epoch) noexcept {
    obs::count(obs::counter::phase_transitions);
#if PHCH_TELEMETRY_ENABLED
    obs::note_phase_transition(table_id_, cls, epoch);
#else
    (void)cls;
    (void)epoch;
#endif
  }

  std::atomic<std::uint64_t> state_{kIdle};  // epoch 0, no op observed yet
#if PHCH_TELEMETRY_ENABLED
  std::uint32_t table_id_ = obs::next_table_id();
#endif
};

static_assert(sizeof(phase_runtime) == 64,
              "phase_runtime is one cache line by design");

}  // namespace phch
