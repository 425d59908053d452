// CSR graph construction and the three generators (3D-grid, random-k, rMat).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "phch/graph/generators.h"
#include "phch/graph/graph.h"

namespace phch::graph {
namespace {

TEST(CsrGraph, SymmetrizesAndDropsSelfLoops) {
  const std::vector<edge> edges = {{0, 1}, {1, 2}, {2, 2}, {3, 0}};
  const auto g = csr_graph::from_edges(4, edges);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);  // self-loop dropped
  EXPECT_EQ(g.degree(0), 2u);    // neighbors 1 and 3
  EXPECT_EQ(g.degree(2), 1u);
  bool found = false;
  g.for_each_neighbor(3, [&](vertex_id w) { found |= (w == 0); });
  EXPECT_TRUE(found);
}

TEST(CsrGraph, RemovesParallelEdges) {
  const std::vector<edge> edges = {{0, 1}, {1, 0}, {0, 1}, {0, 1}};
  const auto g = csr_graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(CsrGraph, AdjacencyIsSorted) {
  const auto g = csr_graph::from_edges(100, random_k_edges(100, 5, 3));
  for (vertex_id v = 0; v < 100; ++v) {
    const vertex_id* nbr = g.neighbors(v);
    for (std::size_t i = 1; i < g.degree(v); ++i) ASSERT_LT(nbr[i - 1], nbr[i]);
  }
}

TEST(CsrGraph, IsolatedVerticesHaveZeroDegree) {
  const std::vector<edge> edges = {{0, 1}};
  const auto g = csr_graph::from_edges(5, edges);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(4), 0u);
  // The isolated last vertex's list is empty and starts at the end of the
  // neighbor array; asking for it must not index past the end (checked
  // under _GLIBCXX_ASSERTIONS).
  EXPECT_EQ(g.neighbors(4), g.neighbors(1) + g.degree(1));
  EXPECT_EQ(g.offsets_entry(4)[1], g.offsets_entry(4)[0]);
  EXPECT_EQ(g.offsets_entry(4), g.offsets_entry(0) + 4);
}

// from_edges against a std::sort + std::unique reference, vertex by vertex.
void expect_matches_reference(std::size_t n, const std::vector<edge>& edges) {
  std::vector<edge> ref;
  for (const edge& e : edges) {
    if (e.u == e.v) continue;
    ref.push_back(e);
    ref.push_back(edge{e.v, e.u});
  }
  const auto by_endpoints = [](const edge& a, const edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::sort(ref.begin(), ref.end(), by_endpoints);
  ref.erase(std::unique(ref.begin(), ref.end()), ref.end());

  const auto g = csr_graph::from_edges(n, edges);
  ASSERT_EQ(g.num_vertices(), n);
  ASSERT_EQ(g.num_edges(), ref.size() / 2);
  std::size_t k = 0;
  for (vertex_id v = 0; v < n; ++v) {
    std::size_t d = 0;
    while (k + d < ref.size() && ref[k + d].u == v) ++d;
    ASSERT_EQ(g.degree(v), d) << "vertex " << v;
    for (std::size_t j = 0; j < d; ++j) ASSERT_EQ(g.neighbors(v)[j], ref[k + j].v) << v;
    k += d;
  }
}

// Appends self-loops and repeated edges (same and reversed direction).
std::vector<edge> with_loops_and_duplicates(std::vector<edge> edges, std::size_t n) {
  const std::size_t m = edges.size();
  for (std::size_t i = 0; i < m; i += 7) {
    edges.push_back(edges[i]);
    edges.push_back(edge{edges[i].v, edges[i].u});
  }
  for (std::size_t v = 0; v < n; v += 5) edges.push_back(edge{vertex_id(v), vertex_id(v)});
  return edges;
}

TEST(CsrGraph, FromEdgesMatchesSortUniqueReference) {
  expect_matches_reference(1000, with_loops_and_duplicates(random_k_edges(1000, 5, 3), 1000));
  expect_matches_reference(1u << 16, with_loops_and_duplicates(random_k_edges(1u << 16, 5, 1),
                                                               1u << 16));
  expect_matches_reference(4096, with_loops_and_duplicates(rmat_edges(12, 40000, 5), 4096));
  expect_matches_reference(125, with_loops_and_duplicates(grid3d_edges(5), 125));
  expect_matches_reference(4096, with_loops_and_duplicates(grid3d_edges(16), 4096));
  expect_matches_reference(0, {});
  expect_matches_reference(1, {{0, 0}, {0, 0}});
  expect_matches_reference(2, {{1, 0}, {0, 0}, {0, 1}, {1, 1}});
}

TEST(Grid3d, TorusHasDegreeSix) {
  const std::size_t d = 8;
  const auto g = csr_graph::from_edges(d * d * d, grid3d_edges(d));
  for (vertex_id v = 0; v < d * d * d; ++v) ASSERT_EQ(g.degree(v), 6u) << v;
  EXPECT_EQ(g.num_edges(), 3 * d * d * d);
}

TEST(Grid3d, SmallTorusDegenerates) {
  // d = 2 wraps onto itself: successor == predecessor, degree 3.
  const auto g = csr_graph::from_edges(8, grid3d_edges(2));
  for (vertex_id v = 0; v < 8; ++v) ASSERT_EQ(g.degree(v), 3u);
}

TEST(RandomK, EveryVertexHasAtLeastKOutEdgesWorthOfNeighbors) {
  const auto edges = random_k_edges(1000, 5, 7);
  EXPECT_EQ(edges.size(), 5000u);
  for (const auto& e : edges) {
    ASSERT_LT(e.u, 1000u);
    ASSERT_LT(e.v, 1000u);
  }
  EXPECT_EQ(edges, random_k_edges(1000, 5, 7));  // deterministic
}

TEST(Rmat, PowerLawDegreeSkew) {
  const std::size_t lg_n = 12;
  const std::size_t n = std::size_t{1} << lg_n;
  const auto edges = rmat_edges(lg_n, 40000, 5);
  // Raw incidence counts (before dedup) expose the power law directly.
  auto raw_degree = [n](const std::vector<edge>& es) {
    std::vector<std::size_t> deg(n, 0);
    for (const auto& e : es) {
      deg[e.u]++;
      deg[e.v]++;
    }
    return *std::max_element(deg.begin(), deg.end());
  };
  const std::size_t rmat_max = raw_degree(edges);
  const std::size_t uniform_max =
      raw_degree(random_k_edges(n, 40000 / n + 1, 5));
  // rMat(0.5, 0.1, 0.1, 0.3) concentrates edges on low-id hub vertices: the
  // hub degree dwarfs a uniform random graph of the same size, and many
  // vertices are untouched entirely.
  EXPECT_GT(rmat_max, 3 * uniform_max);
  const auto g = csr_graph::from_edges(n, edges);
  std::size_t nonzero = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) nonzero += g.degree(v) > 0;
  EXPECT_LT(nonzero, g.num_vertices());
  EXPECT_EQ(edges, rmat_edges(lg_n, 40000, 5));  // deterministic
}

TEST(Weights, AttachedDeterministically) {
  const auto e = random_k_edges(100, 3, 1);
  const auto w1 = with_random_weights(e, 1000, 2);
  const auto w2 = with_random_weights(e, 1000, 2);
  ASSERT_EQ(w1.size(), e.size());
  for (std::size_t i = 0; i < w1.size(); ++i) {
    ASSERT_EQ(w1[i].w, w2[i].w);
    ASSERT_GE(w1[i].w, 1u);
    ASSERT_LE(w1[i].w, 1000u);
  }
}

}  // namespace
}  // namespace phch::graph
