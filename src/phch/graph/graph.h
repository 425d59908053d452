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
    sym = filter(sym, [](const edge& e) { return e.u != e.v; });
    radix_sort(sym, 64, [](const edge& e) {
      return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
    });
    {
      const std::vector<edge>& s = sym;
      sym = pack(
          s.size(), [&](std::size_t i) { return i == 0 || !(s[i] == s[i - 1]); },
          [&](std::size_t i) { return s[i]; });
    }

    csr_graph g;
    g.offsets_.assign(n + 1, 0);
    std::vector<std::size_t> degree(n, 0);
    parallel_for(0, sym.size(), [&](std::size_t i) {
      if (i == 0 || sym[i].u != sym[i - 1].u) {
        std::size_t j = i;
        while (j < sym.size() && sym[j].u == sym[i].u) ++j;
        degree[sym[i].u] = j - i;
      }
    });
    std::vector<std::size_t> off(degree.begin(), degree.end());
    scan_add_inplace(off);
    parallel_for(0, n, [&](std::size_t v) {
      g.offsets_[v] = static_cast<std::uint64_t>(off[v]);
    });
    g.offsets_[n] = sym.size();
    g.neighbors_.resize(sym.size());
    parallel_for(0, sym.size(),
                 [&](std::size_t i) { g.neighbors_[i] = sym[i].v; });
    g.num_vertices_ = n;
    g.num_edges_ = sym.size() / 2;
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
