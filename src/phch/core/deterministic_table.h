// linearHash-D: the paper's contribution. A deterministic phase-concurrent
// hash table using open addressing with prioritized linear probing,
// extending the Blelloch–Golovin history-independent table with CAS-based
// concurrent inserts, deletes and finds (Figure 1 of the paper).
//
// Guarantees (Theorems 1 and 2):
//  - after any collection of concurrent inserts (resp. deletes) completes,
//    the slot array is the unique layout satisfying the ordering invariant
//    for the resulting key set — i.e. the state is a function of the *set*
//    of operations, not their interleaving;
//  - operations are non-blocking and terminate provided the table never
//    becomes full.
//
// Phase discipline (caller's contract, checked by every operation's phase
// scope, core/phase_runtime.h):
//    S = { {insert}, {erase}, {find, contains, elements} }.
//
// The implementation is one policy choice over the shared open-addressing
// core (core/probe_engine.h): prioritized ordering — inserts displace
// lower-priority occupants and probes stop early on the ordering
// invariant — with back-shift (FindReplacement) deletion. History
// independence is a property of exactly this ordering policy; see the
// engine header for the probe/CAS machinery, which is common to all the
// linear tables.
#pragma once

#include "phch/core/probe_engine.h"

namespace phch {

template <typename Traits = int_entry<>>
using deterministic_table = probe_engine<Traits, prioritized_order>;

}  // namespace phch
