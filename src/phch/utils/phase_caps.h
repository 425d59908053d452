// Phase-capability annotations: the phase discipline of Definition 1 as a
// compile-time contract, via Clang's thread-safety analysis (TSA).
//
// The paper's guarantee rests on callers keeping operation classes
//     S = { {insert}, {delete}, {find, elements} }
// from overlapping in time. At runtime every table operation's phase scope
// (core/phase_runtime.h) checks that contract, and TSan observes it — both
// probabilistic: a misuse must actually overlap under load to be caught.
// This header makes the same contract *static*. Every phase-concurrent
// table carries three zero-size capability tokens (one per operation
// class), and every public operation is annotated with the classes it is
// incompatible with. Under `clang++ -Wthread-safety -Werror` a call such as
// `table.find(k)` from inside a region annotated as insert-phase is a
// compile error; under any other compiler (or without the warning) every
// macro below expands to nothing, so the annotations cost zero in code
// size, layout and runtime.
//
// The model, concretely:
//
//  * `PHCH_PHASE_CAPABILITIES()` injects the three capability members
//    (phch_insert_cap_ / phch_erase_cap_ / phch_query_cap_) into a table.
//    They are empty structs — pure analysis tokens, no storage semantics.
//  * `PHCH_REQUIRES_PHASE(cls)` on a public operation expands to
//    `EXCLUDES(<the other two capabilities>)`: the operation may run only
//    when the caller provably does NOT sit inside a region of a different
//    class on the same table. Plain call sites hold no capabilities and
//    compile untouched — the contract binds exactly the callers that mark
//    their regions.
//  * `phch::insert_phase / erase_phase / query_phase` are RAII region
//    markers (scoped capabilities). `phch::insert_phase r(table);` makes
//    every different-class operation on `table` inside the region a
//    -Wthread-safety error. They compile to empty objects: marking a region
//    is free and purely declarative.
//  * spinlock.h uses the classic exclusive mutex forms.
//
// tools/phch_lint.py closes the loop: it fails any public table operation
// that does not carry a PHCH_REQUIRES_PHASE annotation (or an explicit
// PHCH_NO_TSA opt-out), so new tables cannot silently skip the contract.
// DESIGN.md §15 documents the model and how to annotate a new table.
#pragma once

// TSA attributes exist on Clang only; everything is a no-op elsewhere.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PHCH_TSA(x) __attribute__((x))
#endif
#endif
#ifndef PHCH_TSA
#define PHCH_TSA(x)  // non-Clang (or pre-capability Clang): annotation-free
#endif

// --- raw attribute vocabulary (thin names over Clang TSA) -------------------

#define PHCH_CAPABILITY(name) PHCH_TSA(capability(name))
#define PHCH_SCOPED_CAPABILITY PHCH_TSA(scoped_lockable)
#define PHCH_ACQUIRE(...) PHCH_TSA(acquire_capability(__VA_ARGS__))
#define PHCH_RELEASE(...) PHCH_TSA(release_capability(__VA_ARGS__))
#define PHCH_TRY_ACQUIRE(...) PHCH_TSA(try_acquire_capability(__VA_ARGS__))
#define PHCH_EXCLUDES(...) PHCH_TSA(locks_excluded(__VA_ARGS__))
#define PHCH_NO_TSA PHCH_TSA(no_thread_safety_analysis)

namespace phch {

// Zero-size analysis token: one per operation class, per table. Never
// locked at runtime — acquired/released only in the TSA model by the
// region markers below.
class PHCH_CAPABILITY("phase") phase_capability {
 public:
  phase_capability() noexcept = default;
  phase_capability(const phase_capability&) = delete;
  phase_capability& operator=(const phase_capability&) = delete;
};

}  // namespace phch

// Injects the per-class capability tokens into a table. `mutable` because
// query-class operations are const. The trailing member list is expanded
// unconditionally (the tokens are empty structs), so table layouts do not
// depend on the compiler: [[no_unique_address]] keeps them size-free.
#define PHCH_PHASE_CAPABILITIES()                                      \
  [[no_unique_address]] mutable ::phch::phase_capability phch_insert_cap_; \
  [[no_unique_address]] mutable ::phch::phase_capability phch_erase_cap_;  \
  [[no_unique_address]] mutable ::phch::phase_capability phch_query_cap_

// The per-class operation contract: an operation of class `cls` must not
// run inside a marked region of either *other* class on the same table.
// Spelled as EXCLUDES (not REQUIRES) so unmarked call sites — the existing
// code base, and callers whose phase separation comes from program
// structure — stay warning-free.
#define PHCH_REQUIRES_PHASE(cls) PHCH_REQUIRES_PHASE_##cls
#define PHCH_REQUIRES_PHASE_insert \
  PHCH_EXCLUDES(phch_erase_cap_, phch_query_cap_)
#define PHCH_REQUIRES_PHASE_erase \
  PHCH_EXCLUDES(phch_insert_cap_, phch_query_cap_)
#define PHCH_REQUIRES_PHASE_query \
  PHCH_EXCLUDES(phch_insert_cap_, phch_erase_cap_)

namespace phch {

// RAII phase-region markers. `insert_phase r(table);` declares "this region
// is an insert phase of `table`": TSA then rejects any different-class
// operation on that table within the region. Runtime cost: an empty object.
//
// The constructors are templates so the markers work with every table that
// carries PHCH_PHASE_CAPABILITIES() — probe_engine and friends, the sparse
// family, growable_table. (TSA resolves the attribute argument against the
// deduced t; a table without the capability members simply fails to
// instantiate, which is the correct error.)

class PHCH_SCOPED_CAPABILITY insert_phase {
 public:
  template <typename Table>
  explicit insert_phase(Table& t) PHCH_ACQUIRE(t.phch_insert_cap_)
      PHCH_EXCLUDES(t.phch_erase_cap_, t.phch_query_cap_) {
    (void)t;
  }
  ~insert_phase() PHCH_RELEASE() {}
  insert_phase(const insert_phase&) = delete;
  insert_phase& operator=(const insert_phase&) = delete;
};

class PHCH_SCOPED_CAPABILITY erase_phase {
 public:
  template <typename Table>
  explicit erase_phase(Table& t) PHCH_ACQUIRE(t.phch_erase_cap_)
      PHCH_EXCLUDES(t.phch_insert_cap_, t.phch_query_cap_) {
    (void)t;
  }
  ~erase_phase() PHCH_RELEASE() {}
  erase_phase(const erase_phase&) = delete;
  erase_phase& operator=(const erase_phase&) = delete;
};

class PHCH_SCOPED_CAPABILITY query_phase {
 public:
  template <typename Table>
  explicit query_phase(const Table& t) PHCH_ACQUIRE(t.phch_query_cap_)
      PHCH_EXCLUDES(t.phch_insert_cap_, t.phch_erase_cap_) {
    (void)t;
  }
  ~query_phase() PHCH_RELEASE() {}
  query_phase(const query_phase&) = delete;
  query_phase& operator=(const query_phase&) = delete;
};

}  // namespace phch
