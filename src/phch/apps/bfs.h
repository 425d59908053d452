// Breadth-first search (§5, Figure 2): the three implementations of Table 7.
//   serial_bfs  classic queue-based BFS (baseline row "serial")
//   array_bfs   deterministic parallel BFS that computes each next frontier
//               through a pre-allocated candidate array + pack (row "array")
//   hash_bfs    Figure 2: WRITEMIN chooses each vertex's parent, winners
//               insert the neighbor into a phase-concurrent table, and the
//               next frontier is ELEMENTS() (row "linearHash-D" etc.)
//
// All three return the parent array (parent[v] = v for the root,
// kNotReached for unreachable vertices); the deterministic versions produce
// the same parent array as each other on every run and thread count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <vector>

#include "phch/core/table_common.h"
#include "phch/core/table_concepts.h"
#include "phch/graph/graph.h"
#include "phch/obs/trace.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/primitives.h"
#include "phch/utils/arch.h"

namespace phch::apps {

inline constexpr std::int64_t kNotReached = std::numeric_limits<std::int64_t>::max();

// Parent encoding during the search: unvisited = kNotReached; candidate
// parent = nonnegative id (WRITEMIN keeps the smallest); visited = -parent - 1,
// negative and so never displaced by a later WRITEMIN. decode_parent undoes it.
inline std::int64_t encode_visited(std::int64_t parent) { return -parent - 1; }
inline std::int64_t decode_parent(std::int64_t stored) {
  return stored < 0 ? -stored - 1 : stored;
}

inline std::vector<std::int64_t> serial_bfs(const graph::csr_graph& g,
                                            graph::vertex_id root) {
  std::vector<std::int64_t> parents(g.num_vertices(), kNotReached);
  parents[root] = encode_visited(root);
  std::queue<graph::vertex_id> q;
  q.push(root);
  while (!q.empty()) {
    const graph::vertex_id v = q.front();
    q.pop();
    g.for_each_neighbor(v, [&](graph::vertex_id w) {
      if (parents[w] == kNotReached) {
        parents[w] = encode_visited(v);
        q.push(w);
      }
    });
  }
  return parents;
}

namespace detail {
// Frontier positions the walk looks ahead per stage. On phasebench's
// bfs_random and bfs_grid, 2, 4 and 8 time within noise of each other; a
// lookahead of 0 (prefetches issued for the vertex being walked) times the
// same as no prefetching at all (DESIGN.md §16).
inline constexpr std::size_t kWalkAhead = 2;

// Prefetches the parents word of every neighbor of v. Always inlined, so
// GCC cannot delete the prefetches (see phch::detail::prefetch_rw).
[[gnu::always_inline]] inline void prefetch_neighbor_parents(const graph::csr_graph& g,
                                                             graph::vertex_id v,
                                                             const std::int64_t* parents) {
  const graph::vertex_id* nbrs = g.neighbors(v);
  const std::size_t d = g.degree(v);
  for (std::size_t j = 0; j < d; ++j) phch::detail::prefetch_rw(parents + nbrs[j]);
}

// Runs body(i, frontier[i]) for i in [s, e) in order, software-pipelined in
// three stages like the tables' batch rings (core/batch_ops.h): each
// vertex's offsets entry is prefetched 3D positions ahead, its adjacency
// 2D ahead (its offsets have arrived by then) and its neighbors' parents
// words D ahead (its adjacency has arrived), so the random parents loads
// the body makes overlap instead of each missing in turn. Frontiers come
// from ELEMENTS() in hash order, so those loads have no locality to lose.
// Lookahead stops at e: a block never prefetches another block's vertices.
template <typename Body>
void walk_frontier(const graph::csr_graph& g, const std::vector<graph::vertex_id>& frontier,
                   const std::vector<std::int64_t>& parents, std::size_t s, std::size_t e,
                   Body&& body) {
  constexpr std::size_t D = kWalkAhead;
  for (std::size_t i = s; i < e; ++i) {
    if (i + 3 * D < e) phch::detail::prefetch_ro(g.offsets_entry(frontier[i + 3 * D]));
    if (i + 2 * D < e) phch::detail::prefetch_ro(g.neighbors(frontier[i + 2 * D]));
    if (i + D < e) prefetch_neighbor_parents(g, frontier[i + D], parents.data());
    body(i, frontier[i]);
  }
}

// Frontier positions per blocked_for block in every frontier walk: about
// kDefaultGrainTarget blocks per worker.
inline std::size_t frontier_block(std::size_t n) {
  return (n - 1) / (num_workers() * kDefaultGrainTarget) + 1;
}

// The round both BFSs share: each unvisited neighbor of the frontier ends
// up holding its smallest adjacent frontier id (visited ones stay negative).
// Returns the number discovered: parents[w] only decreases from its maximum
// kNotReached, so exactly one successful CAS per newly reached w replaces it.
inline std::size_t relax_frontier(const graph::csr_graph& g,
                                  const std::vector<graph::vertex_id>& frontier,
                                  std::vector<std::int64_t>& parents) {
  const std::size_t n = frontier.size();
  const std::size_t bsize = frontier_block(n);
  std::vector<std::size_t> found((n + bsize - 1) / bsize);
  blocked_for(0, n, bsize, [&](std::size_t b, std::size_t s, std::size_t e) {
    std::size_t k = 0;
    walk_frontier(g, frontier, parents, s, e, [&](std::size_t, graph::vertex_id u) {
      const auto v = static_cast<std::int64_t>(u);
      g.for_each_neighbor(u, [&](graph::vertex_id w) {
        // write_min; after it, cur == kNotReached iff this CAS discovered w.
        std::int64_t cur = atomic_load(&parents[w]);
        while (v < cur && !cas(&parents[w], cur, v)) cur = atomic_load(&parents[w]);
        k += cur == kNotReached;
      });
    });
    found[b] = k;
  });
  return std::accumulate(found.begin(), found.end(), std::size_t{0});
}

inline constexpr std::size_t kClaimBuffer = 512;  // hash_bfs winners per flush
}  // namespace detail

// Array-based deterministic BFS: the next frontier is collected into a
// pre-sized candidate array indexed by (frontier position, neighbor index),
// then packed — the paper's "first method" in §5.
inline std::vector<std::int64_t> array_bfs(const graph::csr_graph& g,
                                           graph::vertex_id root) {
  constexpr graph::vertex_id kHole = std::numeric_limits<graph::vertex_id>::max();
  std::vector<std::int64_t> parents(g.num_vertices(), kNotReached);
  parents[root] = encode_visited(root);
  std::vector<graph::vertex_id> frontier{root};
  while (!frontier.empty()) {
    std::vector<std::size_t> offsets = tabulate(
        frontier.size(), [&](std::size_t i) { return g.degree(frontier[i]); });
    const std::size_t total = scan_add_inplace(offsets);
    std::vector<graph::vertex_id> candidates(total, kHole);
    detail::relax_frontier(g, frontier, parents);
    const std::size_t n = frontier.size();
    blocked_for(0, n, detail::frontier_block(n), [&](std::size_t, std::size_t s, std::size_t e) {
      detail::walk_frontier(g, frontier, parents, s, e, [&](std::size_t i, graph::vertex_id v) {
        std::size_t slot = offsets[i];
        g.for_each_neighbor(v, [&](graph::vertex_id w) {
          if (parents[w] == static_cast<std::int64_t>(v)) candidates[slot] = w;
          ++slot;
        });
      });
    });
    frontier = filter(candidates, [&](graph::vertex_id w) { return w != kHole; });
    parallel_for(0, frontier.size(), [&](std::size_t i) {
      const graph::vertex_id w = frontier[i];
      parents[w] = encode_visited(parents[w]);
    });
  }
  return parents;
}

// Hash-table BFS (Figure 2). Table must store graph::vertex_id keys
// (int_entry<std::uint32_t> traits). Each level's fresh table is built after
// the WRITEMIN round, sized to twice the vertices it discovered times
// `space_mult` (load <= 1/2). §5/§6 size it by the frontier's total degree
// instead, a loose bound (25 slots per key over a BFS of a 2^19-vertex
// random_k_edges(n, 5) graph), and ELEMENTS() scans every slot (DESIGN.md
// §16). The count depends only on the discovered set, so layouts stay
// deterministic. Each WRITEMIN winner v marks its children visited and
// inserts them from the claim loop, buffered per block and flushed through
// the table's insert_block (core/batch_ops.h), which opens the
// insert phase's scope for each flush; the next frontier is ELEMENTS().
// Both walks go through walk_frontier, which prefetches the parents words
// they touch. Only v ever sees parents[w] == v, so one thread writes each
// claimed slot; relaxed order suffices: nothing is published through it,
// and the level's join orders the marks before the next WRITEMIN round.
template <block_table Table>
std::vector<std::int64_t> hash_bfs(const graph::csr_graph& g, graph::vertex_id root,
                                   double space_mult = 1.0) {
  std::vector<std::int64_t> parents(g.num_vertices(), kNotReached);
  parents[root] = encode_visited(root);
  std::vector<graph::vertex_id> frontier{root};
  obs::mark("bfs/start");
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    const std::size_t n = frontier.size();
    obs::span level_span("bfs:level");  // a = level number, b = frontier size
    level_span.a = level++;
    level_span.b = n;
    const std::size_t found = detail::relax_frontier(g, frontier, parents);
    if (found == 0) break;
    Table table(round_up_pow2(static_cast<std::size_t>(space_mult * 2.0 * (found + 2))));
    blocked_for(0, n, detail::frontier_block(n), [&](std::size_t, std::size_t s, std::size_t e) {
      std::array<graph::vertex_id, detail::kClaimBuffer> buf;
      std::size_t len = 0;
      detail::walk_frontier(g, frontier, parents, s, e, [&](std::size_t, graph::vertex_id u) {
        const auto v = static_cast<std::int64_t>(u);
        g.for_each_neighbor(u, [&](graph::vertex_id w) {
          std::atomic_ref<std::int64_t> parent_ref(parents[w]);
          if (parent_ref.load(std::memory_order_relaxed) != v) return;
          parent_ref.store(encode_visited(v), std::memory_order_relaxed);
          buf[len++] = w;
          if (len < buf.size()) return;
          table.insert_block(buf.data(), len);
          len = 0;
        });
      });
      if (len > 0) table.insert_block(buf.data(), len);
    });
    frontier = table.elements();
  }
  obs::mark("bfs/done");
  return parents;
}

}  // namespace phch::apps
