// Graph traversal demo (§5 BFS + spanning forest, Figure 2).
//
//   ./graph_search [n] [grid|random|rmat]
//
// Builds a graph, runs the serial, array-based, and hash-table-based BFS
// and spanning forest implementations, reports times, and checks that the
// deterministic variants agree exactly (exit 1 if they do not).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "phch/apps/bfs.h"
#include "phch/apps/spanning_forest.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/utils/timer.h"
#include "phch/graph/generators.h"

using namespace phch;
using graph::csr_graph;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500000;
  const char* kind = argc > 2 ? argv[2] : "random";

  std::vector<graph::edge> edges;
  std::size_t nv = n;
  if (std::strcmp(kind, "grid") == 0) {
    std::size_t d = 1;
    while ((d + 1) * (d + 1) * (d + 1) <= n) ++d;
    nv = d * d * d;
    edges = graph::grid3d_edges(d);
  } else if (std::strcmp(kind, "rmat") == 0) {
    std::size_t lg = 1;
    while ((std::size_t{1} << (lg + 1)) <= n) ++lg;
    nv = std::size_t{1} << lg;
    edges = graph::rmat_edges(lg, 5 * n);
  } else {
    edges = graph::random_k_edges(n, 5);
  }
  timer t;
  const auto g = csr_graph::from_edges(nv, edges);
  std::printf("graph_search: %s graph, %zu vertices, %zu edges (built in %.2fs), %d threads\n",
              kind, g.num_vertices(), g.num_edges(), t.elapsed(), num_workers());

  // --- BFS -----------------------------------------------------------------
  t.reset();
  const auto serial = apps::serial_bfs(g, 0);
  std::printf("  BFS serial           %.3fs\n", t.elapsed());
  t.reset();
  const auto arr = apps::array_bfs(g, 0);
  std::printf("  BFS array            %.3fs\n", t.elapsed());
  t.reset();
  const auto hashed =
      apps::hash_bfs<deterministic_table<int_entry<std::uint32_t>>>(g, 0);
  const bool bfs_same = arr == hashed;
  std::printf("  BFS linearHash-D     %.3fs   (parents identical to array: %s)\n",
              t.elapsed(), bfs_same ? "yes" : "NO");
  std::size_t reached = 0;
  for (const auto p : hashed) reached += p != apps::kNotReached;
  std::printf("  reached %zu vertices from the root\n", reached);

  // --- spanning forest -------------------------------------------------------
  t.reset();
  const auto fs = apps::serial_spanning_forest(g.num_vertices(), edges);
  std::printf("  SF  serial           %.3fs   (%zu edges)\n", t.elapsed(), fs.size());
  t.reset();
  const auto fa = apps::array_spanning_forest(g.num_vertices(), edges);
  std::printf("  SF  array            %.3fs\n", t.elapsed());
  t.reset();
  const auto fh = apps::hash_spanning_forest<
      deterministic_table<packed_pair_entry<combine_min>>>(g.num_vertices(), edges);
  const bool sf_same = fa == fh;
  std::printf("  SF  linearHash-D     %.3fs   (forest identical to array: %s)\n",
              t.elapsed(), sf_same ? "yes" : "NO");
  return bfs_same && sf_same ? 0 : 1;
}
