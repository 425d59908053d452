// linearHash-ND: non-deterministic phase-concurrent linear probing, the
// paper's history-dependent baseline modeled on Gao, Groote & Hesselink
// (Distributed Computing 2005), with two changes the paper makes:
//  - deletions shift elements back (hole filling) instead of marking the
//    deleted slot "deleted" for good, and
//  - no resizing.
//
// Inserts place an element in the *first empty slot* of its probe sequence,
// so the layout depends on arrival order — the table is not deterministic.
// Inserted elements never move during an insert phase, which is why the
// paper notes inserts and finds could legally share a phase here, and why
// duplicate-key combining can update the value word in place (xadd).
//
// Deletion reuses the same hole-filling replacement protocol as the
// deterministic table (the replacement choice depends only on hash homes,
// not priorities): find the element, swap in the nearest later element that
// hashes at-or-before the hole, then chase the duplicated copy.
//
// Implementation: arrival-order placement with back-shift deletion over the
// shared open-addressing core (core/probe_engine.h).
#pragma once

#include "phch/core/probe_engine.h"

namespace phch {

template <typename Traits = int_entry<>>
using nd_linear_table = probe_engine<Traits, arrival_order>;

}  // namespace phch
