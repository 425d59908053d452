// Phase-discipline policies (Definition 1 of the paper), as views over the
// per-table phase state machine in core/phase_runtime.h.
//
// A phase-concurrent table requires the caller to keep operations of
// different types from overlapping in time:
//     S = { {insert}, {delete}, {find, elements} }.
// Tables take a Phase policy parameter and hold one instance of it. Both
// policies carry exactly one phase-state word — a phase_runtime — which is
// the table's sole source of phase truth: every operation (scalar or
// batched) announces its class through it, the class-transition edge feeds
// the obs tracer exactly once per boundary, and the monotone phase epoch
// counts the boundaries.
//
// These policies are the *dynamic* half of the phase contract; the static
// half is the capability annotations of utils/phase_caps.h (DESIGN.md §15).
// The scope guards here carry no thread-safety attributes on purpose: the
// operation class is a runtime value (op_kind), while TSA capabilities are
// resolved at compile time — the per-class tokens live on the tables, where
// the class *is* static (one per annotated public operation).
//
// `unchecked_phases` (the default) is the runtime alone — the same-class
// fast path is one relaxed load and a compare, matching the paper's
// benchmarked code. `checked_phases` additionally maintains per-table
// in-flight counters per operation class and, on an illegal overlap, routes
// a structured phase_violation report through a pluggable process-wide
// handler. The default handler prints the report and aborts (so the test
// suite can still death-test the discipline); tests install their own
// handler to intercept violations in-process.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "phch/core/phase_runtime.h"
#include "phch/parallel/scheduler.h"

namespace phch {

// Everything known about a phase-discipline violation at detection time:
// which table (address, plus its debug name if one was set), what operation
// class tried to start, how many operations of each class were in flight,
// and which scheduler worker tripped it (-1 for non-pool threads).
struct phase_violation {
  const void* table = nullptr;
  const char* table_name = nullptr;  // may be null (unnamed table)
  op_kind attempted = op_kind::insert;
  std::uint64_t in_flight[3] = {0, 0, 0};  // indexed by op_kind
  int worker = -1;
};

using phase_violation_handler = void (*)(const phase_violation&);

// Default handler: structured report to stderr, then abort. The message
// keeps the "phase-concurrency violation" marker the death tests match.
inline void abort_on_phase_violation(const phase_violation& v) {
  std::fprintf(stderr,
               "phch: phase-concurrency violation: %s started on table %s(%p) "
               "with in-flight ops {insert: %llu, erase: %llu, query: %llu} "
               "(worker %d)\n",
               op_kind_name(v.attempted),
               v.table_name != nullptr ? v.table_name : "", v.table,
               static_cast<unsigned long long>(v.in_flight[0]),
               static_cast<unsigned long long>(v.in_flight[1]),
               static_cast<unsigned long long>(v.in_flight[2]), v.worker);
  std::abort();
}

namespace detail {
inline std::atomic<phase_violation_handler> g_phase_violation_handler{
    &abort_on_phase_violation};
}

// Installs `h` as the process-wide violation handler and returns the
// previous one. Pass nullptr to restore the aborting default. A handler
// that returns normally lets the offending operation proceed (the overlap
// has already been recorded); intercepting tests typically count or stash
// the report.
inline phase_violation_handler set_phase_violation_handler(
    phase_violation_handler h) noexcept {
  return detail::g_phase_violation_handler.exchange(
      h != nullptr ? h : &abort_on_phase_violation, std::memory_order_acq_rel);
}

struct unchecked_phases {
  struct scope {
    scope(unchecked_phases& owner, op_kind kind) noexcept {
      owner.runtime_.on_op(kind);
    }
  };

  phase_runtime& runtime() noexcept { return runtime_; }
  const phase_runtime& runtime() const noexcept { return runtime_; }

  phase_runtime runtime_;
};

class checked_phases {
 public:
  class scope {
   public:
    scope(checked_phases& owner, op_kind kind) noexcept : owner_(owner), kind_(kind) {
      owner_.runtime_.on_op(kind);
      const std::uint64_t prev =
          owner_.in_flight_.fetch_add(delta(kind_), std::memory_order_acq_rel);
      // Each op class owns 21 bits of the counter; any other class having a
      // non-zero count means ops of different types overlapped in time.
      for (int k = 0; k < 3; ++k) {
        if (k != static_cast<int>(kind_) && ((prev >> (21 * k)) & mask21) != 0) {
          owner_.report_violation(kind_, prev);
          break;
        }
      }
    }
    ~scope() { owner_.in_flight_.fetch_sub(delta(kind_), std::memory_order_acq_rel); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    checked_phases& owner_;
    op_kind kind_;
  };

  phase_runtime& runtime() noexcept { return runtime_; }
  const phase_runtime& runtime() const noexcept { return runtime_; }

  // Optional debug name included in violation reports. The pointed-to
  // string must outlive the table (string literals in practice).
  void set_name(const char* name) noexcept { name_ = name; }
  const char* name() const noexcept { return name_; }

 private:
  void report_violation(op_kind attempted, std::uint64_t prev) const {
    phase_violation v;
    v.table = this;
    v.table_name = name_;
    v.attempted = attempted;
    for (int k = 0; k < 3; ++k) v.in_flight[k] = (prev >> (21 * k)) & mask21;
    v.worker = scheduler::worker_id();
    detail::g_phase_violation_handler.load(std::memory_order_acquire)(v);
  }

  static constexpr std::uint64_t mask21 = (1ULL << 21) - 1;
  static std::uint64_t delta(op_kind k) noexcept {
    return 1ULL << (21 * static_cast<int>(k));
  }
  phase_runtime runtime_;
  std::atomic<std::uint64_t> in_flight_{0};
  const char* name_ = nullptr;
};

}  // namespace phch
