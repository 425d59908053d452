// Batched table operations: one software-pipelined (AMAC-style) ring
// driver, and the parallel batch API over every table.
//
// Phase-concurrent workloads naturally arrive as batches (insert this whole
// sequence, look up all of these keys), which admits a memory-level
// parallelism trick single operations cannot use. A table's block members
// keep kBatchWidth in-flight operations per worker in a ring and advance
// them round-robin: each step inspects the line whose prefetch was issued
// one rotation ago, either completes the operation or prefetches its next
// line, then rotates to the next in-flight operation. A pipelined find
// overlaps every cache miss along its whole probe chain — not just the
// home line — with up to kBatchWidth-1 others, the
// asynchronous-memory-access-chaining (AMAC) structure of Kocberber et al.;
// an insert or erase overlaps its first lines' misses and then runs the
// scalar loop.
//
// run_batch_ring below is the only ring loop. It owns the kBatchWidth
// lanes, issue/refill/retire/rotate and the batch_rotations / batch_blocks
// counts; a kernel supplies only a lane type, start(lane, i) (hash op i,
// prefetch its first line) and step(lane) -> done (inspect the prefetched
// line, then finish the operation or prefetch the next line). Only the
// finds of the linear and chained tables are multi-step kernels:
//
//   probe_engine (linearHash-D/ND) find        the probe scan pipelined
//                 line by line
//   chained find                               one chain link per rotation
//
// They stay on the ring because it measures a win there: run as handoffs
// (prefetch the first line, then the scalar loop), the linear find was
// slower at loads 0.75 and 0.9 and the chained find slower at load 0.5,
// because a handoff overlaps only the first line of a long probe or chain;
// a handoff that prefetched two lines ahead was still slower at every load
// (EXPERIMENTS.md, ablation 6, has the numbers).
//
// run_handoff_block is the ring's one-step form and serves every other
// block member: a lane is an op index and its key's hash. Start runs the
// table's prefetch for op i, which hashes the key once and prefetches its
// first lines (the linear home line, both cuckoo candidates, the hopscotch
// home neighborhood, or the chained bucket head); step runs the table's
// scalar op from that hash on the lines the prefetch warmed.
//
// Every block table exposes the same three serial members, each opening
// one phase scope of its class for the block:
//
//   insert_block(const V* values, n)
//   find_block(const K* keys, n, value_type* out)
//   erase_block(const K* keys, n)
//
// and the free insert_batch / find_batch / erase_batch below are the only
// parallel drivers: blocked_for over kBatchBlock-op blocks, one block
// member call per block. growable_table is the one table with its own
// whole-batch members (its insert batch interleaves growth), and is
// forwarded to. Every phase-concurrent table is one or the other.
//
// A batch is one phase (Definition 1): all its blocks share one class.
// Each block's scope announces that class to the table's phase_runtime, so
// a batch that starts a new phase advances the epoch exactly once. The
// scope is held per block, on the worker running it, not across the whole
// batch: an operation of another class that starts while a block runs is
// reported when the block's scope exits, one that starts and finishes
// between two blocks is not, and an empty batch opens no scope and marks no
// phase boundary.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "phch/core/table_concepts.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/parallel_for.h"
#include "phch/utils/arch.h"  // detail::prefetch_ro / prefetch_rw

namespace phch {

// In-flight operations per worker in a block member's ring, within the
// hardware's miss handling capacity (~10-20 line fill buffers).
inline constexpr std::size_t kBatchWidth = 12;

// Operations per block the parallel drivers hand to one block member call.
inline constexpr std::size_t kBatchBlock = 2048;

namespace batch_detail {

// Slots per cache line; slot arrays are 64-byte aligned, so slot i starts a
// fresh line exactly when i % slots_per_line == 0 (the wrap to slot 0 too).
template <typename V>
inline constexpr std::size_t slots_per_line = sizeof(V) < 64 ? 64 / sizeof(V) : 1;

// Runs operations 0..n through a ring of kBatchWidth lanes on the calling
// thread. start(lane, i) issues operation i into a lane; step(lane)
// advances it by one prefetched line and returns true once it is finished.
// A finished lane is refilled with the next operation; once the batch is
// fully issued it is retired by moving the last live lane into its place.
//
// The callables are copied into locals. GCC keeps a local closure's
// by-value captures (slot pointer, mask, capacity) in registers, but
// reloads a parameter's from memory after every seq_cst slot load.
template <typename Lane, typename Start, typename Step>
void run_batch_ring(std::size_t n, const Start& start_fn, const Step& step_fn) {
  Start start = start_fn;
  Step step = step_fn;
  std::array<Lane, kBatchWidth> ring;
  std::size_t issued = 0;
  std::size_t live = 0;
  std::uint64_t rotations = 0;
  while (live < kBatchWidth && issued < n) start(ring[live++], issued++);
  std::size_t r = 0;
  while (live > 0) {
    Lane& lane = ring[r];
    if (step(lane)) {
      if (issued < n) {
        start(lane, issued++);  // refill the lane, keep rotating
      } else {
        ring[r] = ring[--live];
        if (r == live) r = 0;
        continue;  // the moved-in lane already has a prefetch in flight
      }
    }
    ++rotations;
    if (++r >= live) r = 0;
  }
  obs::count(obs::counter::batch_rotations, rotations);
  obs::count(obs::counter::batch_blocks);
}

// The handoff form of the ring, for kernels that finish every operation in
// one step: a lane is an op index and its key's hash. Start runs
// prefetch(i), which hashes op i's key, prefetches from the hash and
// returns it; step runs op(i, hash) -- the table's scalar operation from
// that hash -- on the lines the prefetch warmed one rotation ago, so each
// key is hashed once. Each of the n operations counts as one
// batch_handoff.
template <typename Prefetch, typename Op>
void run_handoff_block(std::size_t n, const Prefetch& prefetch, const Op& op) {
  struct lane {
    std::size_t idx;
    std::uint64_t hash;
  };
  run_batch_ring<lane>(
      n, [prefetch](lane& o, std::size_t i) { o = lane{i, prefetch(i)}; },
      [op](lane& o) {
        op(o.idx, o.hash);
        return true;
      });
  obs::count(obs::counter::batch_handoffs, n);
}

}  // namespace batch_detail

// ---------------------------------------------------------------------------
// Public batch API. A forwarding table (growable_table) runs its own batch
// members; a block table runs one block member per kBatchBlock-op block.
// ---------------------------------------------------------------------------

// Inserts values[0..n); whole-batch parallel. One insert phase.
template <typename Table, typename V>
void insert_batch(Table& t, const V* values, std::size_t n) {
  if constexpr (batch_forwarding_table<Table>) {
    t.insert_batch(values, n);
  } else {
    static_assert(block_table<Table>, "insert_batch needs a block or forwarding table");
    blocked_for(0, n, kBatchBlock, [&](std::size_t, std::size_t s, std::size_t e) {
      t.insert_block(values + s, e - s);
    });
  }
}

template <typename Table, typename V>
void insert_batch(Table& t, const std::vector<V>& values) {
  insert_batch(t, values.data(), values.size());
}

// Looks up keys[0..n); out[i] = stored value or empty. One query phase.
template <typename Table, typename K>
std::vector<typename Table::value_type> find_batch(const Table& t,
                                                   const std::vector<K>& keys) {
  if constexpr (batch_forwarding_table<Table>) {
    return t.find_batch(keys);
  } else {
    static_assert(block_table<Table>, "find_batch needs a block or forwarding table");
    std::vector<typename Table::value_type> out(keys.size());
    blocked_for(0, keys.size(), kBatchBlock,
                [&](std::size_t, std::size_t s, std::size_t e) {
                  t.find_block(keys.data() + s, e - s, out.data() + s);
                });
    return out;
  }
}

// Erases keys[0..n). One delete phase.
template <typename Table, typename K>
void erase_batch(Table& t, const std::vector<K>& keys) {
  if constexpr (batch_forwarding_table<Table>) {
    t.erase_batch(keys);
  } else {
    static_assert(block_table<Table>, "erase_batch needs a block or forwarding table");
    blocked_for(0, keys.size(), kBatchBlock,
                [&](std::size_t, std::size_t s, std::size_t e) {
                  t.erase_block(keys.data() + s, e - s);
                });
  }
}

}  // namespace phch
