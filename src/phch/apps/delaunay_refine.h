// Delaunay refinement (§5): repeatedly insert circumcenters of "bad"
// (skinny) triangles until all triangles meet the quality bound, keeping
// the set of pending bad triangles in a phase-concurrent hash table.
//
// Round structure (deterministic reservations, as in the paper):
//   1. bad = table.ELEMENTS()                  [timed: hash portion]
//   2. each bad triangle locates its circumcenter's cavity and WRITEMINs
//      its *index in the bad sequence* into every affected triangle
//      (cavity + outer ring);
//   3. triangles whose affected set is fully self-marked are winners; new
//      triangle/point slots are assigned by prefix sums over the winners,
//      so ids are deterministic;
//   4. winners retriangulate; newly created bad triangles are inserted
//      into a fresh table                      [timed: hash portion].
//
// Because ELEMENTS() of a deterministic table is order-deterministic, the
// priorities — and hence the final mesh — are identical on every run and
// thread count. With a non-deterministic table the refinement still
// terminates with a valid mesh, but the mesh differs run to run.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "phch/core/table_common.h"
#include "phch/geometry/delaunay.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/primitives.h"

namespace phch::apps {

struct refine_stats {
  std::size_t rounds = 0;
  std::size_t points_added = 0;
  std::size_t final_bad = 0;      // refinable bad triangles left (nonzero only
                                  // when the point cap stopped the run)
  std::size_t unrefinable = 0;    // skinny triangles whose circumcenter falls
                                  // outside the mesh (no boundary handling)
  double hash_seconds = 0;        // time in ELEMENTS() + inserts (Table 4)
};

namespace detail {
inline bool is_bad_triangle(const geometry::mesh& m, geometry::tri_id t,
                            double ratio_bound) {
  if (!m.is_real(t)) return false;
  const auto& tr = m.triangles()[static_cast<std::size_t>(t)];
  return geometry::radius_edge_ratio(m.pt(tr.v[0]), m.pt(tr.v[1]), m.pt(tr.v[2])) >
         ratio_bound;
}

// A table of `capacity` slots filled by fill(table). The rounds size their
// tables at 2n + 4 slots for at most n keys, so load can reach 0.5, where
// cuckoo placement fails with small probability (table_full_error). A table
// that fills up is dropped and the round refilled into one twice the size:
// fill only inserts a set of keys, so the retry ends with the same set.
template <typename Table, typename Fill>
std::unique_ptr<Table> filled_table(std::size_t capacity, Fill&& fill) {
  for (;;) {
    auto table = std::make_unique<Table>(capacity);
    try {
      fill(*table);
      return table;
    } catch (const table_full_error&) {
      capacity *= 2;
    }
  }
}
}  // namespace detail

// Refines `m` in place until no bad triangles remain or `max_new_points`
// circumcenters have been added. `min_angle_deg` sets the quality bound
// (Ruppert: ratio bound = 1 / (2 sin alpha); alpha <= ~26 degrees is
// guaranteed to terminate). Table stores triangle ids
// (int_entry<std::uint64_t> traits). A `Clock` functor (returning seconds)
// lets the benchmark attribute the hash-table portion.
template <typename Table, typename Clock>
refine_stats refine(geometry::mesh& m, double min_angle_deg, std::size_t max_new_points,
                    Clock&& now) {
  const double ratio_bound = 1.0 / (2.0 * std::sin(min_angle_deg * M_PI / 180.0));
  refine_stats stats;

  // Seed table with the initial bad triangles.
  auto initial_bad = pack_index(m.triangles().size(), [&](std::size_t t) {
    return detail::is_bad_triangle(m, static_cast<geometry::tri_id>(t), ratio_bound);
  });
  auto table = detail::filled_table<Table>(
      round_up_pow2(2 * initial_bad.size() + 4), [&](Table& t) {
        const double t0 = now();
        parallel_for(0, initial_bad.size(), [&](std::size_t i) {
          t.insert(static_cast<std::uint64_t>(initial_bad[i]));
        });
        stats.hash_seconds += now() - t0;
      });

  // Reservation slots per triangle (grown lazily), UINT64_MAX = free.
  constexpr std::uint64_t kFree = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> reserved;

  for (;;) {
    const double t0 = now();
    std::vector<std::uint64_t> bad = table->elements();
    stats.hash_seconds += now() - t0;
    if (bad.empty()) break;
    ++stats.rounds;
    if (stats.points_added >= max_new_points) {
      stats.final_bad = bad.size();
      break;
    }

    reserved.assign(m.triangles().size(), kFree);

    // Phase A (read-only on the mesh): compute each bad triangle's cavity
    // and affected set, and reserve with WRITEMIN of its sequence index.
    const std::size_t nb = bad.size();
    std::vector<geometry::point2d> centers(nb);
    std::vector<std::vector<geometry::tri_id>> cavities(nb);
    std::vector<std::vector<geometry::tri_id>> affected(nb);
    std::vector<std::uint8_t> still_bad(nb, 0);
    parallel_for(0, nb, [&](std::size_t i) {
      const auto t = static_cast<geometry::tri_id>(bad[i]);
      if (!detail::is_bad_triangle(m, t, ratio_bound)) return;  // stale entry
      const auto& tr = m.triangles()[static_cast<std::size_t>(t)];
      centers[i] = geometry::circumcenter(m.pt(tr.v[0]), m.pt(tr.v[1]), m.pt(tr.v[2]));
      if (!m.insertable(centers[i])) {
        // Circumcenter outside the mesh (boundary-adjacent sliver); cannot
        // be refined without boundary handling — drop it.
        fetch_add(&stats.unrefinable, std::size_t{1});
        return;
      }
      still_bad[i] = 1;
      const geometry::tri_id t0c = m.locate(centers[i], t);
      cavities[i] = m.cavity_of(centers[i], t0c);
      affected[i] = cavities[i];
      for (const geometry::tri_id c : cavities[i]) {
        const auto& ct = m.triangles()[static_cast<std::size_t>(c)];
        for (const geometry::tri_id out : ct.nbr) {
          if (out == geometry::kNoTri) continue;
          bool inside = false;
          for (const geometry::tri_id cc : cavities[i]) inside |= cc == out;
          if (!inside) affected[i].push_back(out);
        }
      }
      for (const geometry::tri_id a : affected[i]) {
        write_min(&reserved[static_cast<std::size_t>(a)], static_cast<std::uint64_t>(i));
      }
    });

    // Phase B: winners own every triangle they affect.
    std::vector<std::uint8_t> winner(nb, 0);
    parallel_for(0, nb, [&](std::size_t i) {
      if (!still_bad[i]) return;
      for (const geometry::tri_id a : affected[i]) {
        if (reserved[static_cast<std::size_t>(a)] != static_cast<std::uint64_t>(i)) return;
      }
      winner[i] = 1;
    });

    // Phase C: deterministic slot assignment. Winner i creates
    // boundary_size(cavity_i) triangles and one point.
    std::vector<std::size_t> tri_counts(nb, 0);
    std::vector<std::size_t> pt_counts(nb, 0);
    parallel_for(0, nb, [&](std::size_t i) {
      if (winner[i]) {
        tri_counts[i] = m.cavity_boundary_size(cavities[i]);
        pt_counts[i] = 1;
      }
    });
    const std::size_t tri_base = m.triangles().size();
    const std::size_t pt_base = m.points().size();
    const std::size_t new_tris = scan_add_inplace(tri_counts);
    const std::size_t new_pts = scan_add_inplace(pt_counts);
    if (new_pts == 0) {
      // Every entry was stale or unrefinable; nothing left to do. (A
      // still-bad refinable entry always yields at least one winner — the
      // minimum-index one owns everything it marked.)
      break;
    }
    m.triangles().resize(tri_base + new_tris);
    m.points().resize(pt_base + new_pts);

    // Phase D: winners carve (mutually disjoint affected sets => safe).
    std::vector<std::vector<geometry::tri_id>> created(nb);
    parallel_for(0, nb, [&](std::size_t i) {
      if (!winner[i]) return;
      const auto pv = static_cast<std::int32_t>(pt_base + pt_counts[i]);
      m.points()[static_cast<std::size_t>(pv)] = centers[i];
      created[i] = m.carve_and_fill(pv, cavities[i], tri_base + tri_counts[i]);
    });
    stats.points_added += new_pts;

    // Phase E: gather the next round's bad triangles — new triangles from
    // winners, plus losers' targets, which stay bad and must be retried.
    table = detail::filled_table<Table>(round_up_pow2(2 * (new_tris + nb) + 4), [&](Table& next) {
      const double t1 = now();
      parallel_for(0, nb, [&](std::size_t i) {
        if (winner[i]) {
          for (const geometry::tri_id nt : created[i]) {
            if (detail::is_bad_triangle(m, nt, ratio_bound)) {
              next.insert(static_cast<std::uint64_t>(nt));
            }
          }
        } else if (still_bad[i]) {
          // Loser: its triangle may have been destroyed by a winner; re-check.
          const auto t = static_cast<geometry::tri_id>(bad[i]);
          if (detail::is_bad_triangle(m, t, ratio_bound)) {
            next.insert(static_cast<std::uint64_t>(t));
          }
        }
      });
      stats.hash_seconds += now() - t1;
    });
  }
  return stats;
}

}  // namespace phch::apps
