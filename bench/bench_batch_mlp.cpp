// Memory-level parallelism of the batch engines (core/batch_ops.h).
//
// Single-worker ns/op of the find/insert/erase batch paths on a
// DRAM-resident linearHash-D table (default 2^23 slots, 64 MB) at load
// factors 0.25 / 0.5 / 0.75 / 0.9, uniform integer keys:
//   find    scalar     per-op loop, no prefetching
//           prefetch   home line prefetched kPrefetchAhead positions down
//                      the batch (the baseline the ring must beat)
//           pipelined  find_block: AMAC-style ring of kBatchWidth in-flight
//                      probes, prefetching every line a probe crosses
//   insert and erase
//           scalar     per-op loop
//           block      insert_block / erase_block: the home line
//                      prefetched kBatchWidth ops ahead, then the scalar op
//                      (run_handoff_block)
// The engines are called through the table's block members on one thread,
// so the numbers isolate MLP from multicore parallelism. Mean/max probe
// lengths from table_stats accompany each load so ns/op can be read against
// the probe chains actually traversed.
//
// Expected shape: at low load every find is a one-line probe and prefetch
// ≈ pipelined; as load (and probe length) grows, the ring keeps every
// chained miss overlapped and pulls ahead of home-line-only prefetch.
//
// Writes machine-readable results to BENCH_batch.json (or argv[1]).
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "phch/core/batch_ops.h"
#include "phch/core/chained_table.h"
#include "phch/core/cuckoo_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/growable_table.h"
#include "phch/core/hopscotch_table.h"
#include "phch/core/table_stats.h"
#include "phch/obs/export.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/parallel_for.h"

using namespace phch;
using namespace phch::bench;

using table_t = deterministic_table<int_entry<>>;

namespace {

struct find_times {
  double scalar = 0, prefetch = 0, pipelined = 0;
};

struct update_times {
  double scalar = 0, block = 0;
};

struct load_point {
  double load = 0;
  probe_stats stats;
  find_times find;
  update_times insert, erase;
};

// Single-thread reference loops (the parallel wrappers in batch_ops.h would
// measure the scheduler too; here only the probe engine should differ).
template <typename Table>
void find_serial(const Table& t, const std::vector<std::uint64_t>& keys,
                 std::vector<std::uint64_t>& out) {
  for (std::size_t i = 0; i < keys.size(); ++i) out[i] = t.find(keys[i]);
}

// The prefetch-ahead find baseline: hash the key kPrefetchAhead positions
// down the batch and prefetch its home slot, where every Figure-1 probe
// starts.
constexpr std::size_t kPrefetchAhead = 8;

void find_serial_prefetch(const table_t& t, const std::vector<std::uint64_t>& keys,
                          std::vector<std::uint64_t>& out) {
  const std::size_t n = keys.size();
  const std::size_t mask = t.capacity() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n)
      detail::prefetch_ro(t.raw_slots() +
                          (table_t::traits::hash(keys[i + kPrefetchAhead]) & mask));
    out[i] = t.find(keys[i]);
  }
}

double med(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_batch.json";
  const std::size_t cap = round_up_pow2(scaled_size(std::size_t{1} << 23));
  const std::size_t qbatch = std::min(cap / 8, scaled_size(std::size_t{1} << 20));

  std::printf("Batch-probe MLP: scalar vs prefetch-ahead vs block engines, one worker\n");
  std::printf("table capacity = %zu (%.0f MB), batch = %zu ops, width = %zu, "
              "reps = %ld (median)\n",
              cap, static_cast<double>(cap * sizeof(std::uint64_t)) / 1048576.0,
              qbatch, kBatchWidth, reps());
  std::printf("  %5s %10s | %26s | %17s | %17s\n", "", "", "find ns/op",
              "insert ns/op", "erase ns/op");
  std::printf("  %5s %10s | %8s %8s %8s | %8s %8s | %8s %8s\n", "load", "avg probe",
              "scalar", "prefetch", "pipeline", "scalar", "block", "scalar", "block");

  const auto pool = tabulate(cap, [](std::size_t i) { return std::uint64_t{i + 1}; });
  std::vector<load_point> points;

  for (const double load : {0.25, 0.5, 0.75, 0.9}) {
    load_point pt;
    pt.load = load;
    const std::size_t fill = static_cast<std::size_t>(load * static_cast<double>(cap));
    table_t t(cap);
    parallel_for(0, fill, [&](std::size_t i) { t.insert(pool[i]); });
    pt.stats = analyze(t);

    // Query keys: present keys in hash-scrambled order (random homes).
    const auto qkeys = tabulate(qbatch, [&](std::size_t i) {
      return pool[hash64(i ^ 0x9e3779b97f4a7c15ULL) % fill];
    });
    std::vector<std::uint64_t> out(qbatch);
    const double per_q = 1e9 / static_cast<double>(qbatch);
    pt.find.scalar = per_q * time_median([] {}, [&] { find_serial(t, qkeys, out); });
    pt.find.prefetch =
        per_q * time_median([] {}, [&] { find_serial_prefetch(t, qkeys, out); });
    pt.find.pipelined = per_q * time_median([] {}, [&] {
      t.find_block(qkeys.data(), qbatch, out.data());
    });

    // Insert a fresh slab beyond the pool range, then erase it. The table is
    // history-independent (Theorem 2), so erasing restores the exact layout
    // and the block engine measures the same table state.
    const std::size_t dbatch = std::min(qbatch, (cap - fill) / 2 + 1);
    const auto dkeys =
        tabulate(dbatch, [&](std::size_t i) { return std::uint64_t{cap + 1 + i}; });
    const double per_d = 1e9 / static_cast<double>(dbatch);
    std::vector<double> ti, te;
    auto pairwise = [&](auto&& ins, auto&& del) {
      ti.clear();
      te.clear();
      for (long r = 0; r < reps(); ++r) {
        ti.push_back(time_once(ins));
        te.push_back(time_once(del));
      }
      return std::pair<double, double>{per_d * med(ti), per_d * med(te)};
    };
    std::tie(pt.insert.scalar, pt.erase.scalar) = pairwise(
        [&] {
          for (std::size_t i = 0; i < dbatch; ++i) t.insert(dkeys[i]);
        },
        [&] {
          for (std::size_t i = 0; i < dbatch; ++i) t.erase(dkeys[i]);
        });
    std::tie(pt.insert.block, pt.erase.block) = pairwise(
        [&] { t.insert_block(dkeys.data(), dbatch); },
        [&] { t.erase_block(dkeys.data(), dbatch); });

    std::printf("  %5.2f %10.2f | %8.1f %8.1f %8.1f | %8.1f %8.1f | %8.1f %8.1f\n",
                load, pt.stats.mean_probe, pt.find.scalar, pt.find.prefetch,
                pt.find.pipelined, pt.insert.scalar, pt.insert.block,
                pt.erase.scalar, pt.erase.block);
    points.push_back(pt);
  }

  // --- growable wrapper batch forwarding -----------------------------------
  //
  // Whole-batch insert through the wrapper (chunked block engine, one
  // load-bound check per chunk, batched migration) vs the pre-refactor path:
  // a per-op insert loop with a per-insert load-bound check. Both start tiny
  // and grow to the same final capacity. Uses the configured worker pool.
  struct simple_times {
    double scalar = 0, pipelined = 0;
  };
  simple_times grow_insert, grow_find;
  std::size_t grow_n = std::min(qbatch, std::size_t{1} << 17);
  std::size_t grow_growths = 0;
  {
    const auto gkeys =
        tabulate(grow_n, [&](std::size_t i) { return hash64(i) | 1; });
    const double per_g = 1e9 / static_cast<double>(grow_n);
    std::vector<double> ts;
    for (long r = 0; r < reps(); ++r) {
      growable_table<int_entry<>> t(1024);
      ts.push_back(time_once([&] {
        parallel_for(0, grow_n, [&](std::size_t i) { t.insert(gkeys[i]); });
      }));
    }
    grow_insert.scalar = per_g * med(ts);
    ts.clear();
    std::unique_ptr<growable_table<int_entry<>>> grown;
    for (long r = 0; r < reps(); ++r) {
      auto t = std::make_unique<growable_table<int_entry<>>>(1024);
      ts.push_back(time_once([&] { insert_batch(*t, gkeys); }));
      if (r + 1 == reps()) {
        grow_growths = t->growth_count();
        grown = std::move(t);
      }
    }
    grow_insert.pipelined = per_g * med(ts);

    std::vector<std::uint64_t> gout(grow_n);
    grow_find.scalar = per_g * time_median([] {}, [&] {
      for (std::size_t i = 0; i < grow_n; ++i) gout[i] = grown->find(gkeys[i]);
    });
    grow_find.pipelined = per_g * time_median([] {}, [&] {
      const auto out = find_batch(*grown, gkeys);
      gout[0] = out[0];
    });
    std::printf("\ngrowable wrapper (1024 -> %zu slots, %zu growths, %zu keys), "
                "%d workers:\n",
                grown->capacity(), grow_growths, grow_n, num_workers());
    std::printf("  %-8s per-op %8.1f  batched %8.1f ns/op\n", "insert",
                grow_insert.scalar, grow_insert.pipelined);
    std::printf("  %-8s per-op %8.1f  batched %8.1f ns/op\n", "find",
                grow_find.scalar, grow_find.pipelined);
  }

  // --- sparse family: scalar vs batched block engines ----------------------
  //
  // The cuckoo / hopscotch / chained block members run the shared ring:
  // handoff lanes that prefetch both candidate buckets or the home
  // neighborhood or bucket head, and chained find's chain-walk lanes.
  // Measure each table's block
  // members against its scalar per-op loop on one thread at load 0.5 —
  // uniform present keys for find, and a slab of present keys erased then
  // re-inserted so every rep measures the same key set. (Erase-then-insert,
  // not insert-then-erase: load 0.5 is the 2-choice cuckoo placement
  // threshold, so the slab must stay below it, never above.)
  struct sparse_result {
    const char* name = nullptr;
    double find_scalar = 0, find_batched = 0;
    double insert_scalar = 0, insert_batched = 0;
    double erase_scalar = 0, erase_batched = 0;
  };
  std::vector<sparse_result> sparse;
  const std::size_t scap = std::max<std::size_t>(std::size_t{1} << 18, cap >> 1);
  {
    auto sparse_bench = [&]<typename Table>(const char* name) {
      const std::size_t sfill = scap / 2;
      Table t(scap);
      parallel_for(0, sfill, [&](std::size_t i) { t.insert(pool[i]); });

      sparse_result r;
      r.name = name;
      const std::size_t sqbatch = std::min(qbatch, scap / 8);
      const auto sqkeys = tabulate(sqbatch, [&](std::size_t i) {
        return pool[hash64(i ^ 0x27d4eb2f165667c5ULL) % sfill];
      });
      std::vector<std::uint64_t> sout(sqbatch);
      const double per_q = 1e9 / static_cast<double>(sqbatch);
      r.find_scalar = per_q * time_median([] {}, [&] {
        for (std::size_t i = 0; i < sqbatch; ++i) sout[i] = t.find(sqkeys[i]);
      });
      r.find_batched = per_q * time_median([] {}, [&] {
        t.find_block(sqkeys.data(), sqbatch, sout.data());
      });

      const std::size_t sdbatch = std::min(sqbatch, sfill / 2);
      const auto sdkeys =
          tabulate(sdbatch, [&](std::size_t i) { return pool[i]; });
      const double per_d = 1e9 / static_cast<double>(sdbatch);
      std::vector<double> te, ti;
      auto pairwise = [&](auto&& del, auto&& ins) {
        te.clear();
        ti.clear();
        for (long rep = 0; rep < reps(); ++rep) {
          te.push_back(time_once(del));
          ti.push_back(time_once(ins));
        }
        return std::pair<double, double>{per_d * med(te), per_d * med(ti)};
      };
      std::tie(r.erase_scalar, r.insert_scalar) = pairwise(
          [&] {
            for (std::size_t i = 0; i < sdbatch; ++i) t.erase(sdkeys[i]);
          },
          [&] {
            for (std::size_t i = 0; i < sdbatch; ++i) t.insert(sdkeys[i]);
          });
      std::tie(r.erase_batched, r.insert_batched) = pairwise(
          [&] { t.erase_block(sdkeys.data(), sdbatch); },
          [&] { t.insert_block(sdkeys.data(), sdbatch); });
      sparse.push_back(r);
    };
    sparse_bench.template operator()<cuckoo_table<int_entry<>>>("cuckoo");
    sparse_bench.template operator()<hopscotch_table<int_entry<>, true>>(
        "hopscotch");
    sparse_bench.template operator()<chained_table<int_entry<>, true>>(
        "chained");

    std::printf("\nsparse family (capacity %zu, load 0.50), one worker, "
                "scalar vs batched block engine:\n",
                scap);
    std::printf("  %-10s | %17s | %17s | %17s\n", "", "find ns/op",
                "insert ns/op", "erase ns/op");
    std::printf("  %-10s | %8s %8s | %8s %8s | %8s %8s\n", "table", "scalar",
                "batched", "scalar", "batched", "scalar", "batched");
    for (const auto& r : sparse) {
      std::printf("  %-10s | %8.1f %8.1f | %8.1f %8.1f | %8.1f %8.1f\n", r.name,
                  r.find_scalar, r.find_batched, r.insert_scalar,
                  r.insert_batched, r.erase_scalar, r.erase_batched);
    }
    std::printf("  (shape: batched find should lead scalar by >= 1.3x for "
                "cuckoo at this load)\n");
  }

  std::printf("\nshape check: pipelined find should beat prefetch-ahead from load 0.5\n"
              "up, by more as probe chains lengthen; at 0.25 load the two are close.\n");

  FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"batch_mlp\",\n  \"capacity\": %zu,\n", cap);
  std::fprintf(f, "  \"batch\": %zu,\n  \"width\": %zu,\n  \"reps\": %ld,\n", qbatch,
               kBatchWidth, reps());
  std::fprintf(f, "  \"loads\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f, "    {\"load\": %.2f, \"mean_probe\": %.3f, \"max_probe\": %zu,\n",
                 p.load, p.stats.mean_probe, p.stats.max_probe);
    std::fprintf(f,
                 "     \"find\": {\"scalar_ns\": %.1f, \"prefetch_ns\": %.1f, "
                 "\"pipelined_ns\": %.1f},\n",
                 p.find.scalar, p.find.prefetch, p.find.pipelined);
    auto emit = [&](const char* op, const update_times& e, const char* tail) {
      std::fprintf(f, "     \"%s\": {\"scalar_ns\": %.1f, \"block_ns\": %.1f}%s\n",
                   op, e.scalar, e.block, tail);
    };
    emit("insert", p.insert, ",");
    emit("erase", p.erase, "");
    std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"growable\": {\"initial_capacity\": 1024, \"n\": %zu, "
               "\"growths\": %zu,\n"
               "    \"insert\": {\"per_op_ns\": %.1f, \"batched_ns\": %.1f},\n"
               "    \"find\": {\"per_op_ns\": %.1f, \"batched_ns\": %.1f}},\n",
               grow_n, grow_growths, grow_insert.scalar, grow_insert.pipelined,
               grow_find.scalar, grow_find.pipelined);
  std::fprintf(f, "  \"sparse\": {\"capacity\": %zu, \"load\": 0.5, \"tables\": [\n",
               scap);
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    const auto& r = sparse[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\",\n"
                 "     \"find\": {\"scalar_ns\": %.1f, \"batched_ns\": %.1f},\n"
                 "     \"insert\": {\"scalar_ns\": %.1f, \"batched_ns\": %.1f},\n"
                 "     \"erase\": {\"scalar_ns\": %.1f, \"batched_ns\": %.1f}}%s\n",
                 r.name, r.find_scalar, r.find_batched, r.insert_scalar,
                 r.insert_batched, r.erase_scalar, r.erase_batched,
                 i + 1 < sparse.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  // Everything the runs above recorded (all zeros when telemetry is
  // compiled out).
  std::fprintf(f, "  \"telemetry\": {\"compiled\": %s,\n    ",
               obs::compiled ? "true" : "false");
  obs::write_snapshot_json(f, obs::snapshot(), "    ");
  std::fprintf(f, "}\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
