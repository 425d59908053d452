// Delaunay refinement demo (§5): triangulate a point set, refine until all
// (refinable) triangles have min angle >= alpha, report per-phase stats.
//
//   ./mesh_refine [n] [alpha_degrees] [cube|kuzmin]
//
// Exits 1 if the initial or the refined mesh is not a valid triangulation.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "phch/apps/delaunay_refine.h"
#include "phch/core/deterministic_table.h"
#include "phch/geometry/point_generators.h"
#include "phch/utils/timer.h"

using namespace phch;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const double alpha = argc > 2 ? std::strtod(argv[2], nullptr) : 25.0;
  const char* dist = argc > 3 ? argv[3] : "cube";

  const auto pts = std::strcmp(dist, "kuzmin") == 0 ? geometry::kuzmin_points(n, 1)
                                                    : geometry::cube2d_points(n, 1);
  timer t;
  auto m = geometry::mesh::delaunay(pts);
  std::printf("mesh_refine: %zu %s points triangulated in %.2fs (%zu triangles)\n", n,
              dist, t.elapsed(), m.triangles().size());
  if (!m.check_valid()) {
    std::printf("initial mesh INVALID\n");
    return 1;
  }

  timer wall;
  timer hash_clock;
  const auto stats = apps::refine<deterministic_table<int_entry<std::uint64_t>>>(
      m, alpha, 4 * n, [&] { return hash_clock.elapsed(); });
  std::printf("refined to min angle %.1f deg in %.2fs (%zu rounds)\n", alpha,
              wall.elapsed(), stats.rounds);
  std::printf("  Steiner points added : %zu\n", stats.points_added);
  std::printf("  unrefinable slivers  : %zu (circumcenter outside mesh)\n",
              stats.unrefinable);
  std::printf("  bad triangles left   : %zu\n", stats.final_bad);
  std::printf("  hash-table portion   : %.3fs (ELEMENTS + inserts; the part\n"
              "                         Table 4 of the paper measures)\n",
              stats.hash_seconds);
  const bool valid = m.check_valid();
  std::printf("  final mesh valid     : %s\n", valid ? "yes" : "NO");
  return valid ? 0 : 1;
}
