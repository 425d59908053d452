// Delaunay refinement: quality postcondition, mesh validity, determinism
// across runs and thread counts, point budget, table backends.
#include <gtest/gtest.h>

#include <atomic>

#include "phch/apps/delaunay_refine.h"
#include "phch/core/chained_table.h"
#include "phch/core/cuckoo_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/geometry/point_generators.h"
#include "phch/parallel/scheduler.h"

namespace phch::apps {
namespace {

using det_table = deterministic_table<int_entry<std::uint64_t>>;
constexpr auto no_clock = [] { return 0.0; };

TEST(Refine, EliminatesBadTrianglesOnUniformPoints) {
  auto m = geometry::mesh::delaunay(geometry::cube2d_points(1500, 3));
  const auto stats = refine<det_table>(m, 25.0, 1 << 20, no_clock);
  EXPECT_TRUE(m.check_valid());
  EXPECT_EQ(stats.final_bad, 0u);
  const double bound = 1.0 / (2.0 * std::sin(25.0 * M_PI / 180.0));
  // All refinable triangles meet the bound; only boundary slivers whose
  // circumcenters left the mesh may remain.
  std::size_t over = 0;
  for (std::size_t t = 0; t < m.triangles().size(); ++t) {
    if (!m.is_real(static_cast<geometry::tri_id>(t))) continue;
    const auto& tr = m.triangles()[t];
    if (geometry::radius_edge_ratio(m.pt(tr.v[0]), m.pt(tr.v[1]), m.pt(tr.v[2])) > bound)
      ++over;
  }
  EXPECT_LE(over, stats.unrefinable);
  EXPECT_GT(stats.points_added, 0u);
}

TEST(Refine, WorksOnKuzminClustering) {
  auto m = geometry::mesh::delaunay(geometry::kuzmin_points(1200, 5));
  const auto stats = refine<det_table>(m, 22.0, 1 << 20, no_clock);
  EXPECT_TRUE(m.check_valid());
  EXPECT_EQ(stats.final_bad, 0u);
}

TEST(Refine, RespectsPointBudget) {
  auto m = geometry::mesh::delaunay(geometry::cube2d_points(1500, 7));
  const auto stats = refine<det_table>(m, 27.0, 50, no_clock);
  EXPECT_TRUE(m.check_valid());
  // The cap stops refinement with work remaining (27 degrees needs far more
  // than 50 Steiner points on this input); overshoot is at most the final
  // round's winners.
  EXPECT_GE(stats.points_added, 1u);
  EXPECT_GT(stats.final_bad, 0u);
}

TEST(Refine, DeterministicAcrossRuns) {
  const auto pts = geometry::cube2d_points(800, 9);
  auto m1 = geometry::mesh::delaunay(pts);
  auto m2 = geometry::mesh::delaunay(pts);
  const auto s1 = refine<det_table>(m1, 25.0, 1 << 20, no_clock);
  const auto s2 = refine<det_table>(m2, 25.0, 1 << 20, no_clock);
  EXPECT_EQ(s1.points_added, s2.points_added);
  EXPECT_EQ(s1.rounds, s2.rounds);
  ASSERT_EQ(m1.triangles().size(), m2.triangles().size());
  for (std::size_t t = 0; t < m1.triangles().size(); ++t) {
    ASSERT_EQ(m1.triangles()[t].v, m2.triangles()[t].v);
    ASSERT_EQ(m1.triangles()[t].alive, m2.triangles()[t].alive);
  }
  ASSERT_EQ(m1.points().size(), m2.points().size());
  for (std::size_t i = 0; i < m1.points().size(); ++i) {
    ASSERT_EQ(m1.points()[i].x, m2.points()[i].x);
    ASSERT_EQ(m1.points()[i].y, m2.points()[i].y);
  }
}

TEST(Refine, DeterministicAcrossThreadCounts) {
  const auto pts = geometry::cube2d_points(600, 11);
  scheduler& sched = scheduler::get();
  const int original = sched.num_workers();

  sched.set_num_workers(1);
  auto m1 = geometry::mesh::delaunay(pts);
  refine<det_table>(m1, 25.0, 1 << 20, no_clock);

  sched.set_num_workers(6);
  auto m6 = geometry::mesh::delaunay(pts);
  refine<det_table>(m6, 25.0, 1 << 20, no_clock);
  sched.set_num_workers(original);

  ASSERT_EQ(m1.triangles().size(), m6.triangles().size());
  for (std::size_t t = 0; t < m1.triangles().size(); ++t) {
    ASSERT_EQ(m1.triangles()[t].v, m6.triangles()[t].v);
  }
}

TEST(Refine, NonDeterministicBackendsStillProduceValidMeshes) {
  const auto pts = geometry::cube2d_points(700, 13);
  {
    auto m = geometry::mesh::delaunay(pts);
    const auto s =
        refine<nd_linear_table<int_entry<std::uint64_t>>>(m, 25.0, 1 << 20, no_clock);
    EXPECT_TRUE(m.check_valid());
    EXPECT_EQ(s.final_bad, 0u);
  }
  {
    auto m = geometry::mesh::delaunay(pts);
    const auto s =
        refine<cuckoo_table<int_entry<std::uint64_t>>>(m, 25.0, 1 << 20, no_clock);
    EXPECT_TRUE(m.check_valid());
    EXPECT_EQ(s.final_bad, 0u);
  }
  {
    auto m = geometry::mesh::delaunay(pts);
    const auto s = refine<chained_table<int_entry<std::uint64_t>, true>>(m, 25.0, 1 << 20,
                                                                         no_clock);
    EXPECT_TRUE(m.check_valid());
    EXPECT_EQ(s.final_bad, 0u);
  }
}

// linearHash-D that reports itself full once inserts reach a quarter of
// its slots. refine sizes each round's table at 2n + 4 slots for n keys,
// so every round with more than about n/2 inserts throws table_full_error
// at least once and must be refilled into a larger table.
class quarter_full_table {
 public:
  explicit quarter_full_table(std::size_t capacity)
      : table_(capacity), limit_(capacity / 4) {}
  void insert(std::uint64_t k) {
    if (inserts_.fetch_add(1) >= limit_) {
      fills_failed.fetch_add(1);
      throw table_full_error();
    }
    table_.insert(k);
  }
  std::vector<std::uint64_t> elements() const { return table_.elements(); }

  static inline std::atomic<std::size_t> fills_failed{0};

 private:
  det_table table_;
  std::size_t limit_;
  std::atomic<std::size_t> inserts_{0};
};

TEST(Refine, RoundWhoseTableFillsIsRefilledLarger) {
  quarter_full_table::fills_failed = 0;
  auto m = geometry::mesh::delaunay(geometry::cube2d_points(700, 13));
  const auto s = refine<quarter_full_table>(m, 25.0, 1 << 20, no_clock);
  EXPECT_GT(quarter_full_table::fills_failed.load(), 0u);
  EXPECT_TRUE(m.check_valid());
  EXPECT_EQ(s.final_bad, 0u);
  EXPECT_GT(s.points_added, 0u);
}

TEST(Refine, AlreadyGoodMeshIsUntouched) {
  // A fine uniform mesh refined with a very lax bound: nothing to do.
  auto m = geometry::mesh::delaunay(geometry::cube2d_points(500, 15));
  const std::size_t tris_before = m.triangles().size();
  const auto stats = refine<det_table>(m, 0.1, 1 << 20, no_clock);
  EXPECT_EQ(stats.points_added, 0u);
  EXPECT_EQ(m.triangles().size(), tris_before);
}

}  // namespace
}  // namespace phch::apps
