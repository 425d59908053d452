// phasebench: one benchmark for the paper's phase cycle and hash-table BFS,
// with a per-layer ladder charged against serialHash-HI.
//
//   phasebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads. Inputs are a pure function of --seed; the tables only ever see
// the generated keys and graphs.
//   cycle_large  linearHash-D phase cycle at 2^23 slots, load 0.5: 64 MB of
//                slots, 8x the machine's total L2, so probes miss cache.
//   cycle_small  the same cycle at 2^16 slots (512 KB, L2-resident): fixed
//                per-operation costs dominate and cache misses are bypassed.
//   bfs_random   hash-table BFS (Figure 2, Table 7) on a random graph:
//                2^19 vertices, 5 random edges each, few wide levels.
//   bfs_grid     hash-table BFS on a 64^3 torus grid: ~100 narrow levels, so
//                per-level table set-up and fork-join dominate.
//
// One phase cycle, on a fresh table: construct it (timed, since a caller pays
// for it too), insert n keys, find 2n probes (the n keys, then a half-hit
// random mix), erase the second half of the keys, ELEMENTS(), erase the first
// half. Each phase is a parallel_for of scalar operations on all workers, as
// in the paper's Table 1. One BFS is apps::hash_bfs over linearHash-D from a
// seeded root; it inserts through the pipelined batch engine.
//
// Every phase's output is checked against a reference that does not use the
// code under test: serialHash-HI (the history-independent serial table)
// gives the exact slot layout, hit count and ELEMENTS() order of each
// cycle; a serial BFS with the WRITEMIN parent rule (smallest-id neighbor on
// the previous level) gives the exact parent array.
//
// --trace 0 reports the end-to-end metrics (closed loop, one caller, four
// workers): the median wall time of one iteration, and the median time of
// five set-ups (inputs plus reference results). --trace 1 instead replays the
// workload's key batches (the cycle's keys; each BFS level's vertices, in a
// table sized as hash_bfs sizes it) through a ladder that adds one layer per
// rung, and reports the median ns per operation for insert, find and erase:
//   serial_hi  serialHash-HI, the floor
//   cas        Figure 1's prioritized probing with atomic loads and CAS
//   phase      + the phase-word check on every operation
//   counter    + the striped occupancy counter
//   tags       + the tag-sidecar store on every slot CAS
//   table      linearHash-D itself, scalar loop, SIMD tag scans off
//   simd       + SIMD tag scans (the best backend the machine has)
//   batch_p1   the pipelined batch engine on 1 worker
//   batch_p2   ... on 2 workers
//   batch_p4   ... on 4 workers
//   scalar_p4  parallel_for of scalar operations on 4 workers (the cycle's
//              end-to-end path)
// Rungs cas..tags are this file's own compositions of the library's
// primitives; the difference between `tags` and `table` is what the real
// probe engine adds on top of them. Tag scans are off everywhere else (see
// use_tag_scans). The ladder also reports serialHash-HI's time over
// scalar_p4's per operation (the paper's Figure 4 speedup) and counts.
//
// The last line of stdout is one JSON object: correct, attempted and failed
// (phases checked, and how many mismatched their reference) and metrics.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "phch/apps/bfs.h"
#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/phase_runtime.h"
#include "phch/core/serial_table.h"
#include "phch/graph/generators.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/scheduler.h"
#include "phch/parallel/striped_counter.h"
#include "phch/utils/rand.h"

// The tag sidecar is optional here, so that the benchmark keeps building if
// the library drops it: the `tags` rung then equals `counter`, and `simd`
// equals `table`.
#if __has_include("phch/core/tag_array.h") && __has_include("phch/core/simd_scan.h")
#include "phch/core/simd_scan.h"
#include "phch/core/tag_array.h"
#define PHASEBENCH_HAVE_TAGS 1
#else
#define PHASEBENCH_HAVE_TAGS 0
#endif

namespace {

using namespace phch;
using steady = std::chrono::steady_clock;

// Tag-sidecar scans on or off for every table in the process. They are off
// except in the single-threaded `simd` rung: after an insert phase on several
// workers a tag byte can be stale (two CASes that displace through one slot
// publish their tags in either order), and a scanning find then misses a
// present key, which the find checks here report as a mismatch.
void use_tag_scans([[maybe_unused]] bool on) {
#if PHASEBENCH_HAVE_TAGS
  simd::set_backend(on ? simd::best() : simd::backend::off);
#endif
}

constexpr int kWorkers = 4;  // end-to-end worker count, fixed across machines
constexpr int kSetups = 5;   // set-ups per run; setup_s is their median
constexpr int kWarmups = 2;  // untimed (but checked) iterations per run

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

template <typename F>
double timed(F&& f) {
  const auto t0 = steady::now();
  f();
  return seconds_since(t0);
}

// q-quantile, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

options parse_options(int argc, char** argv) {
  options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      have[1] = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      have[2] = *v != '\0' && *end == '\0' && o.seconds > 0;
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have[3] = o.trace || std::strcmp(v, "0") == 0;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || !(have[0] && have[1] && have[2] && have[3])) {
    throw std::invalid_argument(
        "usage: phasebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return o;
}

// What one run prints: every checked phase counts as attempted, every
// mismatch against the reference as failed.
struct report {
  struct metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;

  // Records one checked phase; the first few mismatches are named on stderr.
  void check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) std::fprintf(stderr, "phasebench: mismatch: %s\n", what);
  }

  void add(std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
  }
};

template <typename V>
bool same_layout(const V* slots, const std::vector<V>& expected) {
  return std::memcmp(slots, expected.data(), expected.size() * sizeof(V)) == 0;
}

template <typename Traits>
bool all_empty(const typename Traits::value_type* slots, std::size_t capacity) {
  return std::all_of(slots, slots + capacity,
                     [](typename Traits::value_type c) { return Traits::is_empty(c); });
}

// Builds the state `kSetups` times, keeps the last, and reports the median
// build time as setup_s (end-to-end runs only).
template <typename State, typename... Args>
void set_up(std::optional<State>& state, const options& o, report& r, const Args&... args) {
  std::vector<double> ts;
  for (int i = 0; i < (o.trace ? 1 : kSetups); ++i) {
    state.reset();
    ts.push_back(timed([&] { state.emplace(args...); }));
  }
  if (!o.trace) r.add("setup_s", median(ts), "s");
}

// Closed loop, one caller: warm up, then time iterations back to back for
// `seconds`.
template <typename Iteration>
void measure(const options& o, report& r, Iteration&& iteration) {
  for (int i = 0; i < kWarmups; ++i) iteration();
  std::vector<double> ts;
  const auto t0 = steady::now();
  do {
    ts.push_back(iteration());
  } while (seconds_since(t0) < o.seconds);
  std::printf("iterations timed: %zu\n", ts.size());
  r.add("iter_ms", median(ts) * 1e3, "ms");
}

// --- the layer ladder --------------------------------------------------------

// Figure 1's prioritized linear probing over CAS, with the table layers the
// ladder adds one at a time switched on by the template flags. Same layout
// as serialHash-HI and linearHash-D for the same key set (checked).
template <typename Traits, bool PhaseWord, bool Counter, bool Tags>
class ladder_table {
 public:
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  explicit ladder_table(std::size_t min_capacity)
      : slots_(min_capacity)
#if PHASEBENCH_HAVE_TAGS
        , tags_(Tags ? slots_.capacity() : 0)
#endif
  {
  }

  void insert(value_type v) {
    if constexpr (PhaseWord) phase_.on_op(op_kind::insert);
    std::size_t i = home(Traits::key(v));
    for (std::size_t advances = 0;;) {
      const value_type c = atomic_load(&slots_[i]);
      if (!Traits::is_empty(c) && Traits::key_equal(Traits::key(c), Traits::key(v))) return;
      if (Traits::is_empty(c) || Traits::priority_less(Traits::key(c), Traits::key(v))) {
        if (!cas(&slots_[i], c, v)) continue;
        store_tag(i, v);
        if (Traits::is_empty(c)) {
          if constexpr (Counter) occupied_.increment();
          return;
        }
        v = c;  // carry the displaced, lower-priority element onward
      }
      i = (i + 1) & slots_.mask();
      if (++advances > slots_.capacity()) throw table_full_error();
    }
  }

  value_type find(key_type kq) const {
    if constexpr (PhaseWord) phase_.on_op(op_kind::query);
    for (std::size_t i = home(kq);; i = (i + 1) & slots_.mask()) {
      const value_type c = atomic_load(&slots_[i]);
      if (Traits::is_empty(c)) return c;
      if (!Traits::priority_less(kq, Traits::key(c))) {
        return Traits::key_equal(Traits::key(c), kq) ? c : Traits::empty();
      }
    }
  }

  // Figure 1 lines 25-41, in unwrapped slot coordinates offset by one
  // capacity so they never underflow.
  void erase(key_type kq) {
    if constexpr (PhaseWord) phase_.on_op(op_kind::erase);
    std::uint64_t i = slots_.capacity() + home(kq);
    std::uint64_t k = i;
    for (;;) {
      const value_type c = atomic_load(slot(k));
      if (Traits::is_empty(c) || !Traits::priority_less(kq, Traits::key(c))) break;
      ++k;
    }
    while (k >= i) {
      const value_type c = atomic_load(slot(k));
      if (Traits::is_empty(c) || !Traits::key_equal(Traits::key(c), kq)) {
        --k;
        continue;
      }
      const auto [j, w] = find_replacement(k);
      if (!cas(slot(k), c, w)) {
        --k;
        continue;
      }
      store_tag(k & slots_.mask(), w);
      if (Traits::is_empty(w)) {
        if constexpr (Counter) occupied_.decrement();
        return;
      }
      kq = Traits::key(w);  // w now has two copies; delete the one at j
      k = j;
      i = unwrapped_home(w, j);
    }
  }

  const value_type* raw_slots() const noexcept { return slots_.data(); }

 private:
#if PHASEBENCH_HAVE_TAGS
  void store_tag(std::size_t i, value_type v) noexcept {
    if constexpr (Tags) {
      tags_.store(i, Traits::is_empty(v)
                         ? tag_array::kEmpty
                         : tag_array::fingerprint(Traits::hash(Traits::key(v))));
    }
  }
#else
  void store_tag(std::size_t, value_type) noexcept {}
#endif
  std::size_t home(key_type k) const noexcept { return Traits::hash(k) & slots_.mask(); }
  value_type* slot(std::uint64_t u) noexcept { return &slots_[u & slots_.mask()]; }
  std::uint64_t unwrapped_home(value_type v, std::uint64_t j) const noexcept {
    return j - ((j - home(Traits::key(v))) & slots_.mask());
  }

  // Figure 1 lines 11-24: the nearest later element that hashes at or
  // before the hole at k (or the first empty slot).
  std::pair<std::uint64_t, value_type> find_replacement(std::uint64_t k) {
    std::uint64_t j = k;
    value_type w;
    do {
      w = atomic_load(slot(++j));
    } while (!Traits::is_empty(w) && unwrapped_home(w, j) > k);
    for (std::uint64_t m = j - 1; m > k; --m) {
      const value_type w2 = atomic_load(slot(m));
      if (Traits::is_empty(w2) || unwrapped_home(w2, m) <= k) {
        w = w2;
        j = m;
      }
    }
    return {j, w};
  }

  slot_array<Traits> slots_;
#if PHASEBENCH_HAVE_TAGS
  tag_array tags_;
#endif
  striped_counter occupied_;
  mutable phase_runtime phase_;
};

// One table and the keys one phase cycle of the ladder inserts, finds and
// erases in it.
template <typename K>
struct key_batch {
  std::size_t capacity;
  std::vector<K> keys;
};

struct op_times {
  double insert = 0;
  double find = 0;
  double erase = 0;
};

// How a rung issues one phase's operations.
struct serial_loop {
  template <typename T, typename K>
  static void insert(T& t, const std::vector<K>& ks) {
    for (const K k : ks) t.insert(k);
  }
  template <typename T, typename K, typename V>
  static void find(const T& t, const std::vector<K>& ks, std::vector<V>& out) {
    for (std::size_t i = 0; i < ks.size(); ++i) out[i] = t.find(ks[i]);
  }
  template <typename T, typename K>
  static void erase(T& t, const std::vector<K>& ks) {
    for (const K k : ks) t.erase(k);
  }
};

struct parallel_loop {
  template <typename T, typename K>
  static void insert(T& t, const std::vector<K>& ks) {
    parallel_for(0, ks.size(), [&](std::size_t i) { t.insert(ks[i]); });
  }
  template <typename T, typename K, typename V>
  static void find(const T& t, const std::vector<K>& ks, std::vector<V>& out) {
    parallel_for(0, ks.size(), [&](std::size_t i) { out[i] = t.find(ks[i]); });
  }
  template <typename T, typename K>
  static void erase(T& t, const std::vector<K>& ks) {
    parallel_for(0, ks.size(), [&](std::size_t i) { t.erase(ks[i]); });
  }
};

struct batch_calls {
  template <typename T, typename K>
  static void insert(T& t, const std::vector<K>& ks) {
    insert_batch(t, ks);
  }
  template <typename T, typename K, typename V>
  static void find(const T& t, const std::vector<K>& ks, std::vector<V>& out) {
    out = find_batch(t, ks);
  }
  template <typename T, typename K>
  static void erase(T& t, const std::vector<K>& ks) {
    erase_batch(t, ks);
  }
};

// The ladder's inputs plus, per batch, serialHash-HI's layout after the
// insert phase (the reference every rung's layout is checked against).
template <typename Traits>
struct ladder_input {
  using V = typename Traits::value_type;
  std::vector<key_batch<typename Traits::key_type>> batches;
  std::vector<std::vector<V>> layouts;

  explicit ladder_input(std::vector<key_batch<typename Traits::key_type>> bs)
      : batches(std::move(bs)) {
    for (const auto& b : batches) {
      serial_table_hi<Traits> t(b.capacity);
      for (const auto k : b.keys) t.insert(k);
      layouts.emplace_back(t.raw_slots(), t.raw_slots() + t.capacity());
    }
  }
};

// One pass of one rung over every batch: fresh table per batch, then the
// insert, find and erase phases, each timed and checked.
template <typename Table, typename Loop, typename Traits>
op_times ladder_pass(const ladder_input<Traits>& in, int workers, bool tag_scans,
                     report& r) {
  scheduler::get().set_num_workers(workers);
  use_tag_scans(tag_scans);
  op_times t;
  for (std::size_t bi = 0; bi < in.batches.size(); ++bi) {
    const auto& keys = in.batches[bi].keys;
    Table table(in.batches[bi].capacity);
    t.insert += timed([&] { Loop::insert(table, keys); });
    r.check(same_layout(table.raw_slots(), in.layouts[bi]), "ladder insert layout");
    std::vector<typename Traits::value_type> out(keys.size());
    t.find += timed([&] { Loop::find(table, keys, out); });
    r.check(std::equal(keys.begin(), keys.end(), out.begin()), "ladder find");
    t.erase += timed([&] { Loop::erase(table, keys); });
    r.check(all_empty<Traits>(table.raw_slots(), in.layouts[bi].size()), "ladder erase");
  }
  return t;
}

template <typename Traits>
void run_ladder(const ladder_input<Traits>& in, const options& o, report& r) {
  using lineard = deterministic_table<Traits>;
  struct rung {
    const char* name;
    std::function<op_times()> pass;
    std::vector<op_times> times;
  };
  std::vector<rung> rungs = {
      {"serial_hi", [&] { return ladder_pass<serial_table_hi<Traits>, serial_loop>(in, 1, false, r); }, {}},
      {"cas", [&] { return ladder_pass<ladder_table<Traits, false, false, false>, serial_loop>(in, 1, false, r); }, {}},
      {"phase", [&] { return ladder_pass<ladder_table<Traits, true, false, false>, serial_loop>(in, 1, false, r); }, {}},
      {"counter", [&] { return ladder_pass<ladder_table<Traits, true, true, false>, serial_loop>(in, 1, false, r); }, {}},
      {"tags", [&] { return ladder_pass<ladder_table<Traits, true, true, true>, serial_loop>(in, 1, false, r); }, {}},
      {"table", [&] { return ladder_pass<lineard, serial_loop>(in, 1, false, r); }, {}},
      {"simd", [&] { return ladder_pass<lineard, serial_loop>(in, 1, true, r); }, {}},
      {"batch_p1", [&] { return ladder_pass<lineard, batch_calls>(in, 1, false, r); }, {}},
      {"batch_p2", [&] { return ladder_pass<lineard, batch_calls>(in, 2, false, r); }, {}},
      {"batch_p4", [&] { return ladder_pass<lineard, batch_calls>(in, 4, false, r); }, {}},
      {"scalar_p4", [&] { return ladder_pass<lineard, parallel_loop>(in, 4, false, r); }, {}},
  };
  // Whole passes over all rungs, so machine noise spreads evenly over them.
  const auto t0 = steady::now();
  std::size_t passes = 0;
  do {
    for (rung& g : rungs) g.times.push_back(g.pass());
    ++passes;
  } while (seconds_since(t0) < o.seconds);
  use_tag_scans(false);
  std::size_t keys = 0;
  for (const auto& b : in.batches) keys += b.keys.size();
  std::printf("ladder passes: %zu, each over %zu keys in %zu tables\n", passes, keys,
              in.batches.size());
  const auto ns_per_op = [&](const rung& g, double op_times::*op) {
    std::vector<double> v;
    for (const op_times& t : g.times) v.push_back(t.*op);
    return median(v) * 1e9 / static_cast<double>(keys);
  };
  const std::pair<const char*, double op_times::*> ops[] = {
      {"insert", &op_times::insert}, {"find", &op_times::find}, {"erase", &op_times::erase}};
  for (const auto& [op, field] : ops) {
    for (const rung& g : rungs) {
      r.add(std::string(op) + "_ns_" + g.name, ns_per_op(g, field), "ns");
    }
    // The paper's Figure 4 speedup: serialHash-HI over linearHash-D on all
    // workers.
    r.add(std::string(op) + "_x_serial_hi",
          ns_per_op(rungs.front(), field) / ns_per_op(rungs.back(), field), "x");
  }

  // Slots a successful find examines, from the reference layouts: its
  // displacement from home plus one.
  double probe_slots = 0;
  for (const auto& layout : in.layouts) {
    const std::size_t mask = layout.size() - 1;
    for (std::size_t j = 0; j < layout.size(); ++j) {
      if (Traits::is_empty(layout[j])) continue;
      probe_slots += static_cast<double>(
          ((j - (Traits::hash(Traits::key(layout[j])) & mask)) & mask) + 1);
    }
  }
  r.add("find_probe_slots", probe_slots / static_cast<double>(keys), "slots");
}

// --- phase-cycle workloads ---------------------------------------------------

using key_traits = int_entry<>;  // 64-bit integer keys (randomSeq-int)

struct cycle_state {
  std::size_t capacity;
  std::vector<std::uint64_t> keys;    // insert phase: n = capacity / 2 keys
  std::vector<std::uint64_t> probes;  // find phase: keys, then a half-hit mix
  std::vector<std::uint64_t> first_half, second_half;  // the erase phases
  // serialHash-HI's results, the reference every cycle is checked against.
  std::vector<std::uint64_t> full_layout;    // after the insert phase
  std::size_t probe_hits = 0;                // find phase
  std::vector<std::uint64_t> half_layout;    // after the first erase phase
  std::vector<std::uint64_t> half_elements;  // ELEMENTS() then
  std::vector<std::uint64_t> found;

  cycle_state(std::uint64_t seed, int lg_capacity) : capacity(std::size_t{1} << lg_capacity) {
    const std::size_t n = capacity / 2;
    constexpr std::uint64_t kKeyRange = std::uint64_t{1} << 62;
    const rng rk(hash64(seed ^ 0xc7c1eULL));
    keys = tabulate(n, [&](std::size_t i) { return 1 + rk.ith_rand(i, kKeyRange); });
    const rng rp(hash64(seed ^ 0x9b0beULL));
    probes = tabulate(2 * n, [&](std::size_t i) {
      if (i < n) return keys[i];
      const std::uint64_t h = rp.ith_rand(i);
      return (h & 1) != 0 ? keys[(h >> 1) % n] : 1 + (h >> 1) % kKeyRange;
    });
    first_half.assign(keys.begin(), keys.begin() + n / 2);
    second_half.assign(keys.begin() + n / 2, keys.end());
    found.resize(probes.size());

    serial_table_hi<key_traits> ref(capacity);
    for (const std::uint64_t k : keys) ref.insert(k);
    full_layout.assign(ref.raw_slots(), ref.raw_slots() + capacity);
    for (const std::uint64_t q : probes) probe_hits += ref.contains(q) ? 1 : 0;
    for (const std::uint64_t k : second_half) ref.erase(k);
    half_layout.assign(ref.raw_slots(), ref.raw_slots() + capacity);
    half_elements = ref.elements();
  }

  // One checked cycle on a fresh linearHash-D, built as a caller would build
  // it: construction is timed, and page placement varies within a run rather
  // than between runs. Returns the seconds spent in construction and the
  // five phases.
  double run(report& r) {
    std::optional<deterministic_table<key_traits>> table;
    double s = timed([&] { table.emplace(capacity); });
    auto& t = *table;
    s += timed([&] { parallel_loop::insert(t, keys); });
    r.check(same_layout(t.raw_slots(), full_layout), "cycle insert layout");

    s += timed([&] { parallel_loop::find(t, probes, found); });
    std::size_t hits = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) hits += found[i] == probes[i] ? 1 : 0;
    r.check(hits == probe_hits, "cycle find hits");

    s += timed([&] { parallel_loop::erase(t, second_half); });
    r.check(same_layout(t.raw_slots(), half_layout), "cycle erase layout");

    std::vector<std::uint64_t> elements;
    s += timed([&] { elements = t.elements(); });
    r.check(elements == half_elements, "cycle elements");

    s += timed([&] { parallel_loop::erase(t, first_half); });
    r.check(all_empty<key_traits>(t.raw_slots(), capacity), "cycle final erase");
    return s;
  }
};

void run_cycle(const options& o, int lg_capacity, report& r) {
  std::optional<cycle_state> state;
  set_up(state, o, r, o.seed, lg_capacity);
  if (o.trace) {
    run_ladder(ladder_input<key_traits>({{state->capacity, state->keys}}), o, r);
  } else {
    measure(o, r, [&] { return state->run(r); });
  }
}

// --- BFS workloads -----------------------------------------------------------

using vertex_traits = int_entry<graph::vertex_id>;

enum class graph_kind { random, grid };

graph::csr_graph make_graph(graph_kind kind, std::uint64_t seed) {
  if (kind == graph_kind::random) {
    const std::size_t n = std::size_t{1} << 19;
    return graph::csr_graph::from_edges(n, graph::random_k_edges(n, 5, seed));
  }
  const std::size_t d = 64;
  return graph::csr_graph::from_edges(d * d * d, graph::grid3d_edges(d));
}

struct bfs_state {
  graph::csr_graph g;
  graph::vertex_id root;
  std::vector<std::int64_t> expected;                // encoded parents
  std::vector<std::vector<graph::vertex_id>> levels;  // vertices by depth

  bfs_state(graph_kind kind, std::uint64_t seed)
      : g(make_graph(kind, seed)),
        root(static_cast<graph::vertex_id>(hash64(seed ^ 0x2007ULL) % g.num_vertices())) {
    // Serial level-synchronous BFS for depths, then the WRITEMIN rule: a
    // vertex's parent is its smallest neighbor on the previous level.
    constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
    std::vector<std::uint32_t> depth(g.num_vertices(), kUnseen);
    depth[root] = 0;
    levels.push_back({root});
    for (;;) {
      std::vector<graph::vertex_id> next;
      for (const graph::vertex_id v : levels.back()) {
        g.for_each_neighbor(v, [&](graph::vertex_id w) {
          if (depth[w] == kUnseen) {
            depth[w] = static_cast<std::uint32_t>(levels.size());
            next.push_back(w);
          }
        });
      }
      if (next.empty()) break;
      std::sort(next.begin(), next.end());
      levels.push_back(std::move(next));
    }
    expected.assign(g.num_vertices(), apps::kNotReached);
    expected[root] = apps::encode_visited(root);
    for (std::size_t l = 1; l < levels.size(); ++l) {
      for (const graph::vertex_id v : levels[l]) {
        graph::vertex_id parent = kUnseen;
        g.for_each_neighbor(v, [&](graph::vertex_id u) {
          if (depth[u] + 1 == depth[v]) parent = std::min(parent, u);
        });
        expected[v] = apps::encode_visited(parent);
      }
    }
  }

  // Each level's vertices in a table sized as hash_bfs sizes it: twice the
  // previous level's total degree, plus slack, rounded to a power of two.
  std::vector<key_batch<graph::vertex_id>> batches() const {
    std::vector<key_batch<graph::vertex_id>> bs;
    for (std::size_t l = 1; l < levels.size(); ++l) {
      std::size_t degree = 0;
      for (const graph::vertex_id v : levels[l - 1]) degree += g.degree(v);
      bs.push_back({round_up_pow2(2 * (degree + 2)), levels[l]});
    }
    return bs;
  }

  double run(report& r) const {
    std::vector<std::int64_t> parents;
    const double s = timed([&] {
      parents = apps::hash_bfs<deterministic_table<vertex_traits>>(g, root);
    });
    r.check(parents == expected, "bfs parents");
    return s;
  }
};

void run_bfs(const options& o, graph_kind kind, report& r) {
  std::optional<bfs_state> state;
  set_up(state, o, r, kind, o.seed);
  if (o.trace) {
    run_ladder(ladder_input<vertex_traits>(state->batches()), o, r);
  } else {
    measure(o, r, [&] { return state->run(r); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const options o = parse_options(argc, argv);
    scheduler::get().set_num_workers(kWorkers);
    use_tag_scans(false);
    report r;
    if (o.workload == "cycle_large") {
      run_cycle(o, 23, r);
    } else if (o.workload == "cycle_small") {
      run_cycle(o, 16, r);
    } else if (o.workload == "bfs_random") {
      run_bfs(o, graph_kind::random, r);
    } else if (o.workload == "bfs_grid") {
      run_bfs(o, graph_kind::grid, r);
    } else {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    r.print();
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phasebench: %s\n", e.what());
    return 2;
  }
}
