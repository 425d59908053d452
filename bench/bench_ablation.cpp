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
//  5. Phase-checked insert fill: every table operation checks the phase
//     word on exit, so this times the one (checked) insert fill; the
//     check's own cost is phasebench's `table` minus `phase` rung gap. This
//     section also writes BENCH_phase.json (or argv[1]) for the CI
//     artifact, with the section's telemetry snapshot delta (all zeros
//     when compiled out).
#include <cstdio>
#include <optional>

#include "bench_common.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/growable_table.h"
#include "phch/core/nd_linear_table.h"
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

  // 5. phase-checked insert fill
  {
    std::printf("\n--- phase-checked insert fill ---\n");
    const auto keys = workloads::random_int_seq(n, 1);
    const std::size_t cap = round_up_pow2(3 * n);
    const obs::metrics_snapshot before = obs::snapshot();  // this section only
    std::optional<deterministic_table<int_entry<>>> table;
    const double p = time_median(
        [&] { table.emplace(cap); },
        [&] { parallel_for(0, n, [&](std::size_t i) { table->insert(keys[i]); }); });
    std::printf("  insert fill %8.3f s\n", p);

    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"phase_ablation\",\n");
    std::fprintf(f, "  \"n\": %zu,\n  \"threads\": %d,\n", n, num_workers());
    std::fprintf(f, "  \"phase_check\": {\"insert_s\": %.6f},\n", p);
    std::fprintf(f, "  \"telemetry\": {\"compiled\": %s},\n  ",
                 obs::compiled ? "true" : "false");
    obs::write_snapshot_json(f, obs::snapshot() - before, "  ");
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  }
  return 0;
}
