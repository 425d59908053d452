// Graph substrate: compressed-sparse-row (CSR) undirected graphs and the
// edge-list representation used by the graph applications (§5/§6 of the
// paper: edge contraction, BFS, spanning forest).
#pragma once

#include <cstdint>
#include <vector>

#include "phch/parallel/parallel_for.h"
#include "phch/parallel/primitives.h"
#include "phch/parallel/sort.h"

namespace phch::graph {

using vertex_id = std::uint32_t;

struct edge {
  vertex_id u;
  vertex_id v;
  friend bool operator==(const edge&, const edge&) = default;
};

struct weighted_edge {
  vertex_id u;
  vertex_id v;
  std::uint32_t w;
};

// Symmetric CSR graph. `neighbors[offsets[v] .. offsets[v+1])` are v's
// neighbors; every undirected edge appears in both endpoint lists.
class csr_graph {
 public:
  csr_graph() = default;

  // Builds a symmetric CSR graph from a directed edge list (each input edge
  // contributes both directions). Self-loops and parallel edges are
  // removed, so adjacency lists are sorted duplicate-free.
  static csr_graph from_edges(std::size_t n, const std::vector<edge>& edges) {
    std::vector<edge> sym(edges.size() * 2);
    parallel_for(0, edges.size(), [&](std::size_t i) {
      sym[2 * i] = edges[i];
      sym[2 * i + 1] = edge{edges[i].v, edges[i].u};
    });
    radix_sort(sym, 64, [](const edge& e) {
      return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
    });
    sym = pack(
        sym.size(),
        [&](std::size_t i) { return sym[i].u != sym[i].v && (i == 0 || !(sym[i] == sym[i - 1])); },
        [&](std::size_t i) { return sym[i]; });

    // offsets[v] is v's first edge: index i in [0, m] is the first edge of
    // every vertex in (sym[i-1].u, sym[i].u], reading sym[-1].u as -1, sym[m].u as n.
    csr_graph g;
    const std::size_t m = sym.size();
    g.offsets_.resize(n + 1);
    parallel_for(0, m + 1, [&](std::size_t i) {
      const std::size_t lo = i == 0 ? 0 : std::size_t{sym[i - 1].u} + 1;
      const std::size_t hi = i == m ? n : sym[i].u;
      for (std::size_t v = lo; v <= hi; ++v) g.offsets_[v] = i;
    });
    g.neighbors_ = tabulate(m, [&](std::size_t i) { return sym[i].v; });
    g.num_vertices_ = n;
    g.num_edges_ = m / 2;
    return g;
  }

  std::size_t num_vertices() const noexcept { return num_vertices_; }
  std::size_t num_edges() const noexcept { return num_edges_; }

  std::size_t degree(vertex_id v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }
  // Pointer arithmetic on data(), not operator[]: a degree-0 last vertex's
  // list starts one past the end of neighbors_, which must not be indexed.
  const vertex_id* neighbors(vertex_id v) const noexcept {
    return neighbors_.data() + offsets_[v];
  }
  // Address of v's offsets entry (offsets[v], with offsets[v+1] beside it),
  // for callers that prefetch it before asking for degree or neighbors.
  const std::uint64_t* offsets_entry(vertex_id v) const noexcept {
    return offsets_.data() + v;
  }

  template <typename F>
  void for_each_neighbor(vertex_id v, F&& f) const {
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) f(neighbors_[i]);
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<vertex_id> neighbors_;
  std::size_t num_vertices_ = 0;
  std::size_t num_edges_ = 0;
};

}  // namespace phch::graph
