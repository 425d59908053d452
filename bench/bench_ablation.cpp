// Ablation studies of the design choices DESIGN.md calls out:
//
//  1. Cost of determinism: linearHash-D vs linearHash-ND inserts, by load —
//     isolates the priority-swap overhead.
//  2. Cost of combining: deterministic pair inserts with duplicate keys,
//     full-entry 16-byte CAS (D) vs in-place value merge (ND), by
//     duplication rate.
//  3. Find early-exit: the ordering invariant lets linearHash-D finds stop
//     early on ABSENT keys; ND must scan to an empty slot.
//  4. Growable overhead: growable_table vs pre-sized deterministic_table.
//  5. Phase-check overhead: checked_phases vs unchecked_phases.
//  6. Tombstone deletion (Gao et al., §2) vs back-shift deletion under
//     churn: find cost after repeated insert/delete phases.
//  7. Automatic phasing via room synchronizations (auto_phased_table, the
//     paper's future-work item) vs caller-separated phases.
//  8. Phase-epoch runtime: room-transition cost on mixed auto_phased
//     streams (single-class vs alternating-class). This section also
//     writes BENCH_phase.json (or argv[1]) for the CI artifact, with the
//     section's telemetry snapshot delta (all zeros when compiled out).
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "bench_common.h"
#include "phch/core/auto_phased_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/growable_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/tombstone_table.h"
#include "phch/obs/export.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/parallel_for.h"
#include "phch/workloads/sequences.h"

using namespace phch;
using namespace phch::bench;

int main(int argc, char** argv) {
  // Line-buffered even into a pipe, so a section that throws does not take
  // the lines already printed with it.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const char* json_path = argc > 1 ? argv[1] : "BENCH_phase.json";
  const std::size_t n = scaled_size(1000000);
  std::printf("Ablations (n = %zu, threads = %d)\n", n, num_workers());

  // 1. determinism cost by load
  {
    std::printf("\n--- priority-swap overhead (insert, uniform keys) ---\n");
    std::printf("  %6s %14s %14s %8s\n", "load", "linearHash-D", "linearHash-ND",
                "D/ND");
    for (const double load : {0.1, 0.33, 0.6, 0.8}) {
      const std::size_t cap = round_up_pow2(static_cast<std::size_t>(n / load));
      const auto keys = workloads::random_int_seq(n, 1);
      std::optional<deterministic_table<int_entry<>>> td;
      const double d = time_median(
          [&] { td.emplace(cap); },
          [&] { parallel_for(0, n, [&](std::size_t i) { td->insert(keys[i]); }); });
      std::optional<nd_linear_table<int_entry<>>> tn;
      const double nd = time_median(
          [&] { tn.emplace(cap); },
          [&] { parallel_for(0, n, [&](std::size_t i) { tn->insert(keys[i]); }); });
      std::printf("  %6.2f %12.3f s %12.3f s %8.2f\n", load, d, nd, d / nd);
    }
  }

  // 2. combining cost by duplication
  {
    std::printf("\n--- duplicate-key combining: 16B CAS (D) vs in-place xadd (ND) ---\n");
    std::printf("  %10s %14s %14s %8s\n", "distinct", "D (CAS pair)", "ND (xadd)",
                "D/ND");
    for (const std::size_t distinct : {n, n / 10, n / 100, n / 1000}) {
      const std::size_t cap = round_up_pow2(3 * n);
      std::optional<deterministic_table<pair_entry<combine_add>>> td;
      const double d = time_median(
          [&] { td.emplace(cap); },
          [&] {
            parallel_for(0, n, [&](std::size_t i) {
              td->insert(kv64{1 + hash64(i) % distinct, 1});
            });
          });
      std::optional<nd_linear_table<pair_entry<combine_add>>> tn;
      const double nd = time_median(
          [&] { tn.emplace(cap); },
          [&] {
            parallel_for(0, n, [&](std::size_t i) {
              tn->insert(kv64{1 + hash64(i) % distinct, 1});
            });
          });
      std::printf("  %10zu %12.3f s %12.3f s %8.2f\n", distinct, d, nd, d / nd);
    }
  }

  // 3. absent-key find early exit
  {
    std::printf("\n--- find of ABSENT keys: ordering-invariant early exit ---\n");
    const std::size_t cap = round_up_pow2(2 * n);
    deterministic_table<int_entry<>> td(cap);
    nd_linear_table<int_entry<>> tn(cap);
    parallel_for(0, n, [&](std::size_t i) { td.insert(2 * (hash64(i) % n) + 2); });
    parallel_for(0, n, [&](std::size_t i) { tn.insert(2 * (hash64(i) % n) + 2); });
    std::vector<std::uint8_t> sink(n);
    const double d = time_median([] {}, [&] {
      parallel_for(0, n, [&](std::size_t i) {
        sink[i] = td.contains(2 * (hash64(i) % n) + 1);  // all odd: absent
      });
    });
    const double nd = time_median([] {}, [&] {
      parallel_for(0, n, [&](std::size_t i) {
        sink[i] = tn.contains(2 * (hash64(i) % n) + 1);
      });
    });
    std::printf("  linearHash-D  %8.3f s\n  linearHash-ND %8.3f s  (D/ND %.2f; the\n"
                "  paper notes absent-key finds can be *cheaper* than standard probing)\n",
                d, nd, d / nd);
  }

  // 4. growable vs pre-sized
  {
    std::printf("\n--- resizing overhead: growable_table vs pre-sized table ---\n");
    const auto keys = workloads::random_int_seq(n, 1);
    std::optional<deterministic_table<int_entry<>>> fixed;
    const double f = time_median(
        [&] { fixed.emplace(round_up_pow2(3 * n)); },
        [&] { parallel_for(0, n, [&](std::size_t i) { fixed->insert(keys[i]); }); });
    std::optional<growable_table<int_entry<>>> grow;
    const double g = time_median(
        [&] { grow.emplace(1024); },
        [&] { parallel_for(0, n, [&](std::size_t i) { grow->insert(keys[i]); }); });
    std::printf("  pre-sized %8.3f s, growable-from-1024 %8.3f s (overhead %.2fx, "
                "%zu growths)\n", f, g, g / f, grow->growth_count());
  }

  // 5. phase-check overhead
  {
    std::printf("\n--- checked_phases overhead (debug feature) ---\n");
    const auto keys = workloads::random_int_seq(n, 1);
    const std::size_t cap = round_up_pow2(3 * n);
    std::optional<deterministic_table<int_entry<>>> plain;
    const double p = time_median(
        [&] { plain.emplace(cap); },
        [&] { parallel_for(0, n, [&](std::size_t i) { plain->insert(keys[i]); }); });
    std::optional<deterministic_table<int_entry<>, checked_phases>> chk;
    const double c = time_median(
        [&] { chk.emplace(cap); },
        [&] { parallel_for(0, n, [&](std::size_t i) { chk->insert(keys[i]); }); });
    std::printf("  unchecked %8.3f s, checked %8.3f s (%.2fx)\n", p, c, c / p);
  }

  // 6. tombstones vs back-shift under churn
  {
    std::printf("\n--- deletion strategy under churn: tombstones vs back-shift ---\n");
    // Tombstones are never reused, so every round's keys stay in the
    // footprint. The round size is derived from the table so the last round
    // ends 90% full at every scale: well loaded, never full.
    constexpr int kRounds = 5;
    const std::size_t cap = round_up_pow2(n / 2);
    const std::size_t live = cap * 9 / (10 * kRounds);
    tombstone_table<int_entry<>> tomb(cap);
    nd_linear_table<int_entry<>> shift(cap);
    std::printf("  %8s %14s %14s %16s\n", "round", "tombstone find", "backshift find",
                "tomb footprint");
    std::vector<std::uint8_t> sink(live);
    for (int round = 0; round < kRounds; ++round) {
      const auto keys = tabulate(live, [&](std::size_t i) {
        return 1 + hash64(static_cast<std::uint64_t>(round) * live + i) % (1ULL << 40);
      });
      parallel_for(0, live, [&](std::size_t i) { tomb.insert(keys[i]); });
      parallel_for(0, live, [&](std::size_t i) { shift.insert(keys[i]); });
      const double tf = time_once([&] {
        parallel_for(0, live, [&](std::size_t i) { sink[i] = tomb.contains(keys[i]); });
      });
      const double sf = time_once([&] {
        parallel_for(0, live, [&](std::size_t i) { sink[i] = shift.contains(keys[i]); });
      });
      std::printf("  %8d %12.4f s %12.4f s %15zu\n", round, tf, sf, tomb.footprint());
      parallel_for(0, live, [&](std::size_t i) { tomb.erase(keys[i]); });
      parallel_for(0, live, [&](std::size_t i) { shift.erase(keys[i]); });
    }
    std::printf("  (tombstone finds degrade as garbage accumulates, to load %.2f of %zu slots;\n"
                "  back-shift stays flat)\n",
                static_cast<double>(tomb.footprint()) / static_cast<double>(cap), cap);
  }

  // 7. automatic phasing overhead
  {
    std::printf("\n--- room-synchronized automatic phasing vs caller phases ---\n");
    const auto keys = workloads::random_int_seq(n, 1);
    const std::size_t cap = round_up_pow2(3 * n);
    std::optional<deterministic_table<int_entry<>>> raw;
    const double r = time_median(
        [&] { raw.emplace(cap); },
        [&] { parallel_for(0, n, [&](std::size_t i) { raw->insert(keys[i]); }); });
    std::optional<auto_phased_table<deterministic_table<int_entry<>>>> ap;
    const double a = time_median(
        [&] { ap.emplace(cap); },
        [&] { parallel_for(0, n, [&](std::size_t i) { ap->insert(keys[i]); }); });
    std::printf("  caller-phased %8.3f s, auto-phased %8.3f s (%.2fx; single-class\n"
                "  streams pay only the room fast path)\n", r, a, a / r);
  }

  // 8. phase-epoch runtime: room-transition cost
  {
    std::printf("\n--- phase-epoch runtime: room transitions ---\n");
    const std::size_t m = n / 8;
    const std::size_t cap = round_up_pow2(4 * m);
    const auto keys = workloads::random_int_seq(m, 9);
    using apt = auto_phased_table<deterministic_table<int_entry<>>>;
    const obs::metrics_snapshot before = obs::snapshot();  // this section only

    // Single-class stream: every operation enters the same room, so the
    // whole run is one phase transition — the room fast path.
    std::optional<apt> t;
    const double single_s = time_median(
        [&] { t.emplace(cap); },
        [&] { parallel_for(0, m, [&](std::size_t i) { t->insert(keys[i]); }); });

    // Alternating-class stream: concurrent inserts and finds with no caller
    // phasing force the rooms to drain and hand over continually — the
    // worst case for automatic phasing, and the stream that prices a room
    // transition. The wrapped table's phase epoch counts the transitions.
    const std::uint64_t waits_before = obs::total(obs::counter::room_waits);
    const auto alternating = [&] {
      parallel_for(0, m, [&](std::size_t i) {
        if ((i & 1) != 0) {
          t->insert(keys[i]);
        } else {
          (void)t->contains(keys[i]);
        }
      });
    };
    const double alt_s = time_median([&] { t.emplace(cap); }, alternating);
    const std::uint64_t transitions = t->underlying().phase_rt().epoch();
    const std::uint64_t room_waits =
        obs::total(obs::counter::room_waits) - waits_before;
    std::printf("  single-class %8.3f s, alternating %8.3f s (%.2fx; final run "
                "crossed %" PRIu64 " phase boundaries)\n",
                single_s, alt_s, alt_s / single_s, transitions);

    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"phase_ablation\",\n");
    std::fprintf(f, "  \"n\": %zu,\n  \"threads\": %d,\n", m, num_workers());
    std::fprintf(f,
                 "  \"room\": {\"single_class_s\": %.6f, \"alternating_s\": %.6f, "
                 "\"transitions\": %" PRIu64 ", \"room_waits\": %" PRIu64 "},\n",
                 single_s, alt_s, transitions, room_waits);
    std::fprintf(f, "  \"telemetry\": {\"compiled\": %s},\n  ",
                 obs::compiled ? "true" : "false");
    obs::write_snapshot_json(f, obs::snapshot() - before, "  ");
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  }
  return 0;
}
