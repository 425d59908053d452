// phase_runtime: the one phase-state word every table carries, and the
// phase scope that checks it.
//
// The paper's Definition 1 partitions operations into classes
//     S = { {insert}, {delete}, {find, elements} }
// and requires classes not to overlap in time. Each table keeps one
// state machine in one cache line,
//
//     state = (phase epoch << 2) | current operation class
//
// (state_'s orderings are pinned in tools/atomics_contract.tsv).
//
// Every table operation, scalar or block, runs inside one
// phase_runtime::scope. Same-class operations see one relaxed load and a
// compare; the first operation of a *different* class wins a CAS that
// advances the epoch by one, and that CAS winner is the exactly-once
// transition edge: it ticks obs::counter::phase_transitions and records
// the phase_begin trace event.
//
// The scope keeps the word it saw or installed and reloads it on exit (on
// unwinding too). Epochs only grow, so a changed word means an operation
// of another class started while this one was in flight: the scope
// reports a phase_violation. For every overlap the operation that started
// first sees the change, so every build checks Definition 1 with no second
// atomic. The report goes to a pluggable process-wide handler; the default
// prints it and aborts.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "phch/obs/trace.h"
#include "phch/parallel/scheduler.h"

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

class phase_runtime;

// What a scope knows when it sees the word change under it: which table's
// word, the scope's own class, the state words it entered and saw at exit,
// and which scheduler worker it ran on (-1 for non-pool threads).
struct phase_violation {
  const phase_runtime* runtime = nullptr;
  op_kind kind = op_kind::insert;
  std::uint64_t entered = 0;
  std::uint64_t seen = 0;
  int worker = -1;
};

using phase_violation_handler = void (*)(const phase_violation&);

inline void abort_on_phase_violation(const phase_violation& v);

namespace detail {
inline std::atomic<phase_violation_handler> g_phase_violation_handler{
    &abort_on_phase_violation};
}

// Installs `h` as the process-wide violation handler and returns the
// previous one. Pass nullptr to restore the aborting default. A handler
// that returns normally lets the program go on; intercepting tests
// typically count or stash the report. The handler runs in a scope's
// destructor, so one that throws terminates the program.
inline phase_violation_handler set_phase_violation_handler(
    phase_violation_handler h) noexcept {
  return detail::g_phase_violation_handler.exchange(
      h != nullptr ? h : &abort_on_phase_violation, std::memory_order_acq_rel);
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
    bool won = false;
    announce(k, won);
    return won;
  }

  // The same announcement, returning the state word this call saw or
  // installed: its own class and the epoch it entered.
  std::uint64_t enter(op_kind k) noexcept {
    bool won = false;
    return announce(k, won);
  }

  // The current state word.
  std::uint64_t state() const noexcept { return state_.load(std::memory_order_relaxed); }

  static constexpr std::uint64_t epoch_of(std::uint64_t word) noexcept {
    return word >> kClassBits;
  }
  static constexpr std::uint64_t class_of(std::uint64_t word) noexcept {
    return word & kClassMask;
  }

  // Monotonically increasing count of class transitions (0 on a fresh
  // table; +1 per insert<->erase<->query boundary, including the first
  // operation ever, which transitions from idle).
  std::uint64_t epoch() const noexcept { return epoch_of(state()); }

  // The class currently announced (kIdle before the first operation).
  std::uint64_t current_class() const noexcept { return class_of(state()); }

  // One operation's (or one block's) phase scope: enters its class on
  // construction and, on destruction, reports a violation if the word
  // changed while it was open. Scopes of one class nest.
  class scope {
   public:
    scope(phase_runtime& rt, op_kind k) noexcept : rt_(rt), entered_(rt.enter(k)) {}
    ~scope() {
      const std::uint64_t seen = rt_.state();
      if (seen != entered_) [[unlikely]] report(rt_, entered_, seen);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    [[gnu::cold, gnu::noinline]] static void report(const phase_runtime& rt,
                                                    std::uint64_t entered,
                                                    std::uint64_t seen) noexcept {
      const phase_violation v{&rt, static_cast<op_kind>(class_of(entered)), entered,
                              seen, scheduler::worker_id()};
      detail::g_phase_violation_handler.load(std::memory_order_acquire)(v);
    }

    phase_runtime& rt_;
    std::uint64_t entered_;
  };

 private:
  static constexpr std::uint64_t kClassBits = 2;
  static constexpr std::uint64_t kClassMask = (1ULL << kClassBits) - 1;

  std::uint64_t announce(op_kind k, bool& won) noexcept {
    const auto cls = static_cast<std::uint64_t>(k);
    std::uint64_t s = state_.load(std::memory_order_relaxed);
    for (;;) {
      if (class_of(s) == cls) return s;  // same phase: no edge
      const std::uint64_t next = ((epoch_of(s) + 1) << kClassBits) | cls;
      if (state_.compare_exchange_weak(s, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        on_transition(static_cast<std::uint8_t>(cls), epoch_of(next));
        won = true;
        return next;
      }
      // `s` was reloaded by the failed CAS; if a racing operation already
      // advanced into our class, the loop exits through the equality check.
    }
  }

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

// Default handler: the report on stderr, then abort. The message keeps the
// "phase-concurrency violation" marker the death tests match.
inline void abort_on_phase_violation(const phase_violation& v) {
  std::fprintf(stderr,
               "phch: phase-concurrency violation: a %s operation on the table with "
               "phase word %p entered epoch %llu, and a %s phase (epoch %llu) began "
               "before it finished (worker %d)\n",
               op_kind_name(v.kind), static_cast<const void*>(v.runtime),
               static_cast<unsigned long long>(phase_runtime::epoch_of(v.entered)),
               op_kind_name(static_cast<op_kind>(phase_runtime::class_of(v.seen))),
               static_cast<unsigned long long>(phase_runtime::epoch_of(v.seen)), v.worker);
  std::abort();
}

}  // namespace phch
