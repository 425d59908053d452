// tombstone_table: the deletion strategy of Gao, Groote & Hesselink's
// lock-free open-addressing table, as discussed in §2 of the paper — a
// deleted slot is marked with a special "deleted" value (a tombstone);
// inserts and finds skip over tombstones, and an insert is NOT allowed to
// reuse one (doing so lock-freely would race with concurrent finds of the
// same key further along the probe path). The only way to reclaim
// tombstones is to rebuild the whole table (`compact()`).
//
// This baseline exists to demonstrate *why* the paper's tables shift
// elements back instead: under churn (repeated insert/delete phases) the
// tombstone population grows monotonically, probe paths lengthen, and the
// table eventually "fills" with garbage — measured in bench_ablation and
// exercised in tests. Phase-concurrent like the others.
//
// Implementation: arrival-order placement with tombstone deletion over the
// shared open-addressing core (core/probe_engine.h). Because the core
// distills the policy into the probe classifiers its pipelined block
// members consume, this table gets the same insert_block / find_block /
// erase_block as the back-shifting tables. Tombstone-specific surface
// (footprint(), compact()) is enabled on the engine by the delete policy.
#pragma once

#include "phch/core/probe_engine.h"

namespace phch {

template <typename Traits = int_entry<>, typename Phase = unchecked_phases>
using tombstone_table = probe_engine<Traits, Phase, arrival_order, tombstone_delete>;

}  // namespace phch
