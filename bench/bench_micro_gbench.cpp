// google-benchmark microbenchmarks: single-operation costs of the core
// table, the parallel primitives it is built from, and the work-stealing
// scheduler's parallel_for / scan / sort / nested par_do.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "phch/core/deterministic_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/serial_table.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/primitives.h"
#include "phch/parallel/sort.h"
#include "phch/utils/rand.h"

using namespace phch;

namespace {

// --- single-threaded single-op costs on a pre-loaded table -----------------

template <typename Table>
void BM_TableFindHit(benchmark::State& state) {
  const std::size_t load_keys = static_cast<std::size_t>(state.range(0));
  Table t(3 * load_keys);
  for (std::size_t i = 0; i < load_keys; ++i) t.insert(i + 1);
  std::uint64_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.find(1 + hash64(q++) % load_keys));
  }
}
BENCHMARK(BM_TableFindHit<deterministic_table<int_entry<>>>)->Arg(1 << 16);
BENCHMARK(BM_TableFindHit<nd_linear_table<int_entry<>>>)->Arg(1 << 16);
BENCHMARK(BM_TableFindHit<serial_table_hi<int_entry<>>>)->Arg(1 << 16);

template <typename Table>
void BM_TableFindMiss(benchmark::State& state) {
  const std::size_t load_keys = static_cast<std::size_t>(state.range(0));
  Table t(3 * load_keys);
  for (std::size_t i = 0; i < load_keys; ++i) t.insert(2 * i + 2);
  std::uint64_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.find(2 * (hash64(q++) % load_keys) + 1));
  }
}
BENCHMARK(BM_TableFindMiss<deterministic_table<int_entry<>>>)->Arg(1 << 16);
BENCHMARK(BM_TableFindMiss<nd_linear_table<int_entry<>>>)->Arg(1 << 16);

void BM_InsertEraseCycle(benchmark::State& state) {
  const std::size_t load_keys = static_cast<std::size_t>(state.range(0));
  deterministic_table<int_entry<>> t(3 * load_keys);
  for (std::size_t i = 0; i < load_keys; ++i) t.insert(i + 1);
  std::uint64_t q = 0;
  for (auto _ : state) {
    const std::uint64_t k = (1ULL << 40) + (q++ & 1023);
    t.insert(k);
    t.erase(k);
  }
}
BENCHMARK(BM_InsertEraseCycle)->Arg(1 << 16);

void BM_WriteMin(benchmark::State& state) {
  std::uint64_t cell = ~0ULL;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(write_min(&cell, hash64(i++)));
  }
}
BENCHMARK(BM_WriteMin);

void BM_Cas16(benchmark::State& state) {
  kv64 cell{0, 0};
  for (auto _ : state) {
    const kv64 cur = atomic_load(&cell);
    benchmark::DoNotOptimize(cas(&cell, cur, kv64{cur.k + 1, cur.v + 1}));
  }
}
BENCHMARK(BM_Cas16);

// --- primitives -------------------------------------------------------------

void BM_ScanAdd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto v = tabulate(n, [](std::size_t i) { return hash64(i) % 8; });
    state.ResumeTiming();
    benchmark::DoNotOptimize(scan_add_inplace(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScanAdd)->Arg(1 << 18);

void BM_Pack(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack(
        n, [](std::size_t i) { return (hash64(i) & 3) == 0; },
        [](std::size_t i) { return i; }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Pack)->Arg(1 << 18);

void BM_Elements(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  deterministic_table<int_entry<>> t(3 * n);
  for (std::size_t i = 0; i < n; ++i) t.insert(i + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.elements());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Elements)->Arg(1 << 16);

// --- scheduler: work-stealing fork-join -------------------------------------

void BM_Scheduler_ParallelFor_WS(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    parallel_for(0, n, [&](std::size_t i) { out[i] = i * 0x9e3779b97f4a7c15ULL; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Scheduler_ParallelFor_WS)->Arg(1 << 20)->UseRealTime();

void BM_Scheduler_Scan_WS(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto v = tabulate(n, [](std::size_t i) { return hash64(i) % 8; });
    state.ResumeTiming();
    benchmark::DoNotOptimize(scan_add_inplace(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Scheduler_Scan_WS)->Arg(1 << 20)->UseRealTime();

void BM_Scheduler_Sort_WS(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto v = tabulate(n, [](std::size_t i) { return hash64(i); });
    state.ResumeTiming();
    parallel_sort(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Scheduler_Sort_WS)->Arg(1 << 20)->UseRealTime();

// Nested par_do of two parallel sorts: work stealing keeps all workers busy
// across both branches' inner sorts.
void BM_Scheduler_NestedParDoSort_WS(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto u = tabulate(n, [](std::size_t i) { return hash64(i); });
    auto v = tabulate(n, [n](std::size_t i) { return hash64(i + n); });
    state.ResumeTiming();
    par_do([&] { parallel_sort(u); }, [&] { parallel_sort(v); });
    benchmark::DoNotOptimize(u.data());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_Scheduler_NestedParDoSort_WS)->Arg(1 << 19)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
