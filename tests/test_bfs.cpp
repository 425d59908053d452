// BFS (Figure 2 / Table 7): all implementations agree on levels; the
// deterministic variants agree on exact parent arrays across runs and
// thread counts, and with an independent serial WRITEMIN-rule reference;
// the BFS tree is valid.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <queue>

#include "phch/apps/bfs.h"
#include "phch/core/chained_table.h"
#include "phch/core/cuckoo_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/hopscotch_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/graph/generators.h"
#include "phch/parallel/scheduler.h"

namespace phch::apps {
namespace {

using traits32 = int_entry<std::uint32_t>;

std::vector<std::int64_t> levels_of(const graph::csr_graph& g,
                                    const std::vector<std::int64_t>& parents,
                                    graph::vertex_id root) {
  // Recompute levels from the parent array by BFS over parent pointers.
  std::vector<std::int64_t> level(g.num_vertices(), -1);
  level[root] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      if (level[v] >= 0 || parents[v] == kNotReached) continue;
      const auto p = static_cast<std::size_t>(decode_parent(parents[v]));
      if (level[p] >= 0) {
        level[v] = level[p] + 1;
        changed = true;
      }
    }
  }
  return level;
}

std::vector<std::int64_t> reference_distances(const graph::csr_graph& g,
                                              graph::vertex_id root) {
  std::vector<std::int64_t> dist(g.num_vertices(), -1);
  std::queue<graph::vertex_id> q;
  dist[root] = 0;
  q.push(root);
  while (!q.empty()) {
    const auto v = q.front();
    q.pop();
    g.for_each_neighbor(v, [&](graph::vertex_id w) {
      if (dist[w] < 0) {
        dist[w] = dist[v] + 1;
        q.push(w);
      }
    });
  }
  return dist;
}

// Serial reference for the deterministic BFSs, sharing no code with them:
// queue BFS for depths, then the WRITEMIN rule — a vertex's parent is its
// smallest-id neighbor on the previous level.
std::vector<std::int64_t> writemin_reference(const graph::csr_graph& g,
                                             graph::vertex_id root) {
  const auto dist = reference_distances(g, root);
  std::vector<std::int64_t> parents(g.num_vertices(), kNotReached);
  parents[root] = encode_visited(root);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] <= 0) continue;
    graph::vertex_id best = std::numeric_limits<graph::vertex_id>::max();
    g.for_each_neighbor(static_cast<graph::vertex_id>(v), [&](graph::vertex_id u) {
      if (dist[u] + 1 == dist[v]) best = std::min(best, u);
    });
    parents[v] = encode_visited(best);
  }
  return parents;
}

// sizes[d] = the number of vertices at distance d from the root.
std::vector<std::size_t> level_sizes(const graph::csr_graph& g, graph::vertex_id root) {
  std::vector<std::size_t> sizes;
  for (const std::int64_t d : reference_distances(g, root)) {
    if (d < 0) continue;
    if (sizes.size() <= static_cast<std::size_t>(d)) sizes.resize(d + 1);
    ++sizes[d];
  }
  return sizes;
}

// hash_bfs over Table must reproduce the reference exactly at every worker
// count: parents come from WRITEMIN, not from the table, so every table
// that holds each level's key set gives the same array.
template <typename Table>
void expect_reference_parents(const graph::csr_graph& g,
                              const std::vector<std::int64_t>& want, const char* name,
                              double space_mult = 1.0) {
  scheduler& sched = scheduler::get();
  const int original = sched.num_workers();
  for (const int p : {1, 2, 3, 4, 7}) {
    sched.set_num_workers(p);
    EXPECT_EQ(hash_bfs<Table>(g, 0, space_mult), want) << name << " at " << p << " workers";
  }
  sched.set_num_workers(original);
}

void expect_every_table_matches(const graph::csr_graph& g) {
  const auto want = writemin_reference(g, 0);
  expect_reference_parents<deterministic_table<traits32>>(g, want, "linearHash-D");
  expect_reference_parents<nd_linear_table<traits32>>(g, want, "linearHash-ND");
  expect_reference_parents<cuckoo_table<traits32>>(g, want, "cuckoo", 2.0);
  expect_reference_parents<chained_table<traits32, true>>(g, want, "chained-CR");
  expect_reference_parents<hopscotch_table<traits32>>(g, want, "hopscotch");
}

// The three Table 7 graph families, small: 0 = grid, 1 = random, 2 = rMat.
graph::csr_graph make_test_graph(int which) {
  switch (which) {
    case 0:
      return graph::csr_graph::from_edges(8 * 8 * 8, graph::grid3d_edges(8));
    case 1:
      return graph::csr_graph::from_edges(4000, graph::random_k_edges(4000, 5, 3));
    default:
      return graph::csr_graph::from_edges(1 << 12, graph::rmat_edges(12, 20000, 7));
  }
}

class BfsOnGraphs : public ::testing::TestWithParam<int> {
 protected:
  graph::csr_graph make_graph() const { return make_test_graph(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(Graphs, BfsOnGraphs, ::testing::Values(0, 1, 2));

TEST_P(BfsOnGraphs, AllVariantsAgreeOnDistances) {
  const auto g = make_graph();
  const auto ref = reference_distances(g, 0);
  const auto serial = levels_of(g, serial_bfs(g, 0), 0);
  const auto arr = levels_of(g, array_bfs(g, 0), 0);
  const auto hash = levels_of(g, hash_bfs<deterministic_table<traits32>>(g, 0), 0);
  const auto hashnd = levels_of(g, hash_bfs<nd_linear_table<traits32>>(g, 0), 0);
  EXPECT_EQ(serial, ref);
  EXPECT_EQ(arr, ref);
  EXPECT_EQ(hash, ref);
  EXPECT_EQ(hashnd, ref);
}

TEST_P(BfsOnGraphs, DeterministicVariantsProduceIdenticalParents) {
  const auto g = make_graph();
  const auto a = array_bfs(g, 0);
  const auto h = hash_bfs<deterministic_table<traits32>>(g, 0);
  EXPECT_EQ(a, h);
  // And repeatable.
  EXPECT_EQ(h, hash_bfs<deterministic_table<traits32>>(g, 0));
}

TEST_P(BfsOnGraphs, ParentsFormAValidTree) {
  const auto g = make_graph();
  const auto parents = hash_bfs<deterministic_table<traits32>>(g, 0);
  const auto ref = reference_distances(g, 0);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    if (ref[v] < 0) {
      EXPECT_EQ(parents[v], kNotReached);
      continue;
    }
    ASSERT_LT(parents[v], 0) << "reached vertex not marked visited";
    if (v == 0) continue;
    const auto p = static_cast<graph::vertex_id>(decode_parent(parents[v]));
    // Parent must be a true neighbor one level up.
    bool is_nbr = false;
    g.for_each_neighbor(static_cast<graph::vertex_id>(v),
                        [&](graph::vertex_id w) { is_nbr |= w == p; });
    EXPECT_TRUE(is_nbr);
    EXPECT_EQ(ref[p] + 1, ref[v]);
  }
}

// Exact parents for every table at 1-7 workers, against the independent
// reference (so also identical across thread counts).
TEST_P(BfsOnGraphs, EveryTableMatchesWriteMinReference) {
  const auto g = make_graph();
  EXPECT_EQ(array_bfs(g, 0), writemin_reference(g, 0));
  expect_every_table_matches(g);
}

// relax_frontier's return value is the size of the next level: one
// successful CAS per newly discovered vertex replaces kNotReached, however
// many frontier vertices race for it. The levels are driven serially from
// the round's result, so only the round itself runs in parallel. Each
// frontier is in descending id order, so a walk in order lowers a neighbor
// it shares with earlier frontier vertices once more at each of them: a
// count of all successful CASes would exceed the level. The complete
// bipartite graph makes every frontier vertex of its second round contend
// for every unvisited vertex.
TEST(Bfs, RelaxFrontierCountsDiscoveredVertices) {
  constexpr graph::vertex_id kSide = 200;
  std::vector<graph::edge> bipartite;
  for (graph::vertex_id a = 0; a < kSide; ++a) {
    for (graph::vertex_id b = kSide; b < 2 * kSide; ++b) bipartite.push_back({a, b});
  }
  std::vector<graph::csr_graph> graphs;
  for (const int which : {0, 1, 2}) graphs.push_back(make_test_graph(which));
  graphs.push_back(graph::csr_graph::from_edges(2 * kSide, bipartite));
  scheduler& sched = scheduler::get();
  const int original = sched.num_workers();
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const graph::csr_graph& g = graphs[gi];
    const auto want = level_sizes(g, 0);
    for (const int p : {1, 2, 3, 4, 7}) {
      sched.set_num_workers(p);
      std::vector<std::int64_t> parents(g.num_vertices(), kNotReached);
      parents[0] = encode_visited(0);
      std::vector<graph::vertex_id> frontier{0};
      for (std::size_t level = 1; !frontier.empty(); ++level) {
        const std::size_t found = detail::relax_frontier(g, frontier, parents);
        frontier.clear();
        for (std::size_t v = g.num_vertices(); v-- > 0;) {
          if (parents[v] < 0 || parents[v] == kNotReached) continue;
          frontier.push_back(static_cast<graph::vertex_id>(v));
          parents[v] = encode_visited(parents[v]);
        }
        const std::size_t expected = level < want.size() ? want[level] : 0;
        EXPECT_EQ(found, expected) << "graph " << gi << ", level " << level << ", " << p
                                   << " workers";
        EXPECT_EQ(found, frontier.size()) << "graph " << gi << ", level " << level;
      }
    }
  }
  sched.set_num_workers(original);
}

// A linearHash-D that records, when destroyed, its capacity and the number
// of keys its insert_block calls received. hash_bfs builds one per level, in
// order, so the records are the levels' tables.
struct level_record {
  std::size_t capacity;
  std::size_t keys;
};
std::vector<level_record> g_level_records;

class recording_table : public deterministic_table<traits32> {
 public:
  explicit recording_table(std::size_t min_capacity)
      : deterministic_table<traits32>(min_capacity) {}
  ~recording_table() { g_level_records.push_back({capacity(), keys_.load()}); }

  void insert_block(const value_type* values, std::size_t n) {
    keys_.fetch_add(n, std::memory_order_relaxed);
    deterministic_table<traits32>::insert_block(values, n);
  }

 private:
  std::atomic<std::size_t> keys_{0};
};
static_assert(block_table<recording_table>);

// Each level's table holds exactly the level's keys at load <= 1/2: its
// capacity is round_up_pow2(2(k + 2)) for the k keys WRITEMIN discovered,
// and a round that discovers nothing builds no table. The degree bound
// (round_up_pow2(2(total degree + 2))) is larger on every graph here.
TEST(Bfs, LevelTablesAreSizedByDiscoveredVertices) {
  scheduler& sched = scheduler::get();
  const int original = sched.num_workers();
  for (const int which : {0, 1, 2}) {
    const auto g = make_test_graph(which);
    const auto sizes = level_sizes(g, 0);
    const auto want = writemin_reference(g, 0);
    for (const int p : {1, 4, 7}) {
      sched.set_num_workers(p);
      g_level_records.clear();
      EXPECT_EQ(hash_bfs<recording_table>(g, 0), want) << "graph " << which;
      ASSERT_EQ(g_level_records.size() + 1, sizes.size()) << "graph " << which;
      for (std::size_t i = 0; i < g_level_records.size(); ++i) {
        const auto [capacity, k] = g_level_records[i];
        EXPECT_EQ(k, sizes[i + 1]) << "graph " << which << ", level " << i + 1;
        EXPECT_EQ(capacity, round_up_pow2(2 * (k + 2))) << "graph " << which << ", level "
                                                        << i + 1 << ", " << p << " workers";
        EXPECT_LE(k, capacity / 2) << "graph " << which << ", level " << i + 1;
      }
    }
  }
  sched.set_num_workers(original);
}

// A root with over three claim buffers' worth of children: at one worker
// the single frontier block flushes its winners several times mid-loop.
// Each child has a pendant vertex of its own, so a winner lost in a flush
// leaves its pendant unreached.
TEST(Bfs, StarRootFlushesClaimBufferSeveralTimes) {
  const std::size_t arms = 3 * detail::kClaimBuffer + 17;
  std::vector<graph::edge> edges;
  for (std::size_t i = 1; i <= arms; ++i) {
    const auto arm = static_cast<graph::vertex_id>(i);
    edges.push_back({0, arm});
    edges.push_back({arm, static_cast<graph::vertex_id>(arms + i)});
  }
  const auto g = graph::csr_graph::from_edges(2 * arms + 1, edges);
  const auto p = hash_bfs<deterministic_table<traits32>>(g, 0);
  for (std::size_t i = 1; i <= arms; ++i) {
    ASSERT_EQ(decode_parent(p[i]), 0) << i;
    ASSERT_EQ(decode_parent(p[arms + i]), static_cast<std::int64_t>(i)) << i;
  }
  expect_every_table_matches(g);
}

TEST(Bfs, DisconnectedGraphLeavesUnreached) {
  const std::vector<graph::edge> edges = {{0, 1}, {1, 2}, {3, 4}};
  const auto g = graph::csr_graph::from_edges(5, edges);
  const auto p = hash_bfs<deterministic_table<traits32>>(g, 0);
  EXPECT_LT(p[0], 0);
  EXPECT_LT(p[2], 0);
  EXPECT_EQ(p[3], kNotReached);
  EXPECT_EQ(p[4], kNotReached);
}

// The root has degree 0 and is the last vertex, so its adjacency starts one
// past the end of the (empty) neighbor array.
TEST(Bfs, SingleVertexGraph) {
  const auto g = graph::csr_graph::from_edges(1, {});
  const auto p = serial_bfs(g, 0);
  EXPECT_EQ(decode_parent(p[0]), 0);
  EXPECT_EQ(array_bfs(g, 0), p);
  expect_every_table_matches(g);
}

// Every frontier holds one vertex, fewer than the frontier walk's
// lookahead, so no prefetch stage ever runs ahead of the body.
TEST(Bfs, PathGraphHasSingleVertexFrontiers) {
  const std::size_t n = 40;
  std::vector<graph::edge> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    edges.push_back({static_cast<graph::vertex_id>(i), static_cast<graph::vertex_id>(i + 1)});
  }
  const auto g = graph::csr_graph::from_edges(n, edges);
  const auto p = hash_bfs<deterministic_table<traits32>>(g, 0);
  for (std::size_t v = 1; v < n; ++v) {
    ASSERT_EQ(decode_parent(p[v]), static_cast<std::int64_t>(v - 1)) << v;
  }
  EXPECT_EQ(array_bfs(g, 0), p);
  expect_every_table_matches(g);
}

// The highest-numbered vertex is isolated: its offsets entry is the last one
// and its adjacency starts one past the end of the neighbor array.
TEST(Bfs, IsolatedLastVertexStaysUnreached) {
  const auto rk = graph::random_k_edges(300, 4, 11);
  const auto g = graph::csr_graph::from_edges(301, rk);
  ASSERT_EQ(g.degree(300), 0u);
  const auto p = hash_bfs<deterministic_table<traits32>>(g, 0);
  EXPECT_EQ(p[300], kNotReached);
  EXPECT_EQ(array_bfs(g, 0), p);
  expect_every_table_matches(g);
}

}  // namespace
}  // namespace phch::apps
