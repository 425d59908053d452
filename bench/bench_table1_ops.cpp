// Table 1 and Figure 3: Insert / Find-Random / Find-Inserted /
// Delete-Random / Delete-Inserted / Elements for all nine hash table
// implementations across the six PBBS input distributions.
//
// Output: one matrix per distribution, seconds per full pass of n
// operations. The paper ran n = 1e8 on 40 cores; defaults here are scaled
// (see bench_common.h). Shape to verify against the paper:
//   - linearHash-D within ~10% of linearHash-ND on all ops;
//   - both linear tables beat cuckoo, chained and hopscotch on updates;
//   - chainedHash (non-CR) collapses on duplicate-heavy inputs.
//
// The paper draws Figure 3's two panels from Table 1's 40h columns for
// randomSeq-int (a) and trigramSeq-pairInt (b). After those two matrices
// the panel is printed from the same run: every concurrent table's ratio
// to linearHash-D, measured | paper. Absolute times differ (different
// machine and scale); the ratios are what the figure communicates.
#include <iterator>
#include <optional>

#include "bench_common.h"
#include "phch/core/chained_table.h"
#include "phch/core/cuckoo_table.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/hopscotch_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/serial_table.h"
#include "phch/parallel/parallel_for.h"
#include "phch/workloads/sequences.h"
#include "phch/workloads/trigram.h"

using namespace phch;
using namespace phch::bench;

namespace {

struct six_ops {
  double insert = 0, find_rand = 0, find_ins = 0, del_rand = 0, del_ins = 0,
         elements = 0;
};

// The seven concurrent tables, in the paper's row order.
constexpr const char* kConcurrentImpls[] = {
    "linearHash-D",   "linearHash-ND", "cuckooHash",      "chainedHash",
    "chainedHash-CR", "hopscotchHash", "hopscotchHash-PC"};
constexpr std::size_t kNumConcurrent = std::size(kConcurrentImpls);

// One Figure 3 panel: the paper's Table 1 (40h) insert and delete-random
// seconds for the seven concurrent tables, in kConcurrentImpls order.
struct fig3_paper {
  double insert, del_rand;
};
struct fig3_panel {
  const char* title;
  fig3_paper paper[kNumConcurrent];
};
constexpr fig3_panel kFig3a = {"(a): randomSeq-int",
                               {{0.171, 0.211},
                                {0.170, 0.213},
                                {0.364, 0.210},
                                {0.774, 0.630},
                                {0.708, 0.571},
                                {0.349, 0.302},
                                {0.345, 0.301}}};
constexpr fig3_panel kFig3b = {"(b): trigramSeq-pairInt",
                               {{0.204, 0.109},
                                {0.174, 0.109},
                                {0.242, 0.166},
                                {18.4, 2.70},
                                {0.438, 0.137},
                                {2.36, 1.29},
                                {2.45, 1.34}}};

template <typename Table, bool Concurrent, typename V, typename KeyOf>
six_ops run_one(const std::vector<V>& ins, const std::vector<V>& rnd, std::size_t cap,
                KeyOf key_of) {
  auto fill = [&](Table& t) {
    if constexpr (Concurrent) {
      parallel_for(0, ins.size(), [&](std::size_t i) { t.insert(ins[i]); });
    } else {
      for (const auto& v : ins) t.insert(v);
    }
  };
  std::optional<Table> t;
  six_ops r;

  r.insert = time_median([&] { t.emplace(cap); }, [&] { fill(*t); });

  // t holds a filled table now; finds and elements are non-mutating.
  std::vector<std::uint8_t> sink(std::max(ins.size(), rnd.size()));
  auto find_pass = [&](const std::vector<V>& keys) {
    if constexpr (Concurrent) {
      parallel_for(0, keys.size(),
                   [&](std::size_t i) { sink[i] = t->contains(key_of(keys[i])); });
    } else {
      for (std::size_t i = 0; i < keys.size(); ++i)
        sink[i] = t->contains(key_of(keys[i]));
    }
  };
  r.find_rand = time_median([] {}, [&] { find_pass(rnd); });
  r.find_ins = time_median([] {}, [&] { find_pass(ins); });
  r.elements = time_median([] {}, [&] { sink[0] = t->elements().size() & 1; });

  auto erase_pass = [&](const std::vector<V>& keys) {
    if constexpr (Concurrent) {
      parallel_for(0, keys.size(), [&](std::size_t i) { t->erase(key_of(keys[i])); });
    } else {
      for (const auto& v : keys) t->erase(key_of(v));
    }
  };
  r.del_rand = time_median(
      [&] {
        t.emplace(cap);
        fill(*t);
      },
      [&] { erase_pass(rnd); });
  r.del_ins = time_median(
      [&] {
        t.emplace(cap);
        fill(*t);
      },
      [&] { erase_pass(ins); });
  return r;
}

void print_ops_row(const char* impl, const six_ops& r) {
  std::printf("  %-18s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n", impl, r.insert,
              r.find_rand, r.find_ins, r.del_rand, r.del_ins, r.elements);
}

void print_fig3(const fig3_panel& panel, const six_ops (&measured)[kNumConcurrent]) {
  std::printf("\n--- Figure 3%s ---\n", panel.title);
  std::printf("  %-18s %8s %8s %8s %8s   (ratio to linearHash-D: measured | paper)\n",
              "impl", "insert", "findR", "delR", "elems");
  const six_ops& base = measured[0];
  const fig3_paper& pbase = panel.paper[0];
  for (std::size_t i = 0; i < kNumConcurrent; ++i) {
    const six_ops& m = measured[i];
    const fig3_paper& p = panel.paper[i];
    std::printf("  %-18s %8.3f %8.3f %8.3f %8.3f   ins %4.2f|%4.2f  del %4.2f|%4.2f\n",
                kConcurrentImpls[i], m.insert, m.find_rand, m.del_rand, m.elements,
                m.insert / base.insert, p.insert / pbase.insert,
                m.del_rand / base.del_rand, p.del_rand / pbase.del_rand);
  }
}

template <typename Traits, typename V, typename KeyOf>
void bench_distribution(const char* name, const std::vector<V>& ins,
                        const std::vector<V>& rnd, KeyOf key_of,
                        const fig3_panel* fig3 = nullptr) {
  const std::size_t cap = round_up_pow2(2 * ins.size() + 16);
  print_header(name, ins.size());
  std::printf("  %-18s %8s %8s %8s %8s %8s %8s\n", "impl", "insert", "findR", "findI",
              "delR", "delI", "elems");
  print_ops_row("serialHash-HI", (run_one<serial_table_hi<Traits>, false>(
                                     ins, rnd, cap, key_of)));
  print_ops_row("serialHash-HD", (run_one<serial_table_hd<Traits>, false>(
                                     ins, rnd, cap, key_of)));
  const six_ops measured[kNumConcurrent] = {
      run_one<deterministic_table<Traits>, true>(ins, rnd, cap, key_of),
      run_one<nd_linear_table<Traits>, true>(ins, rnd, cap, key_of),
      run_one<cuckoo_table<Traits>, true>(ins, rnd, cap, key_of),
      run_one<chained_table<Traits, false>, true>(ins, rnd, cap, key_of),
      run_one<chained_table<Traits, true>, true>(ins, rnd, cap, key_of),
      run_one<hopscotch_table<Traits, true>, true>(ins, rnd, cap, key_of),
      run_one<hopscotch_table<Traits, false>, true>(ins, rnd, cap, key_of)};
  for (std::size_t i = 0; i < kNumConcurrent; ++i) {
    print_ops_row(kConcurrentImpls[i], measured[i]);
  }
  if (fig3) print_fig3(*fig3, measured);
}

}  // namespace

int main() {
  const std::size_t n = scaled_size(1000000);
  std::printf("Table 1: hash table operations, %zu ops per cell "
              "(paper: n = 1e8 on 40 cores)\n", n);

  {
    const auto ins = workloads::random_int_seq(n, 1);
    const auto rnd = workloads::random_int_seq(n, 2);
    bench_distribution<int_entry<>>("randomSeq-int", ins, rnd,
                                    [](std::uint64_t v) { return v; }, &kFig3a);
  }
  {
    const auto ins = workloads::random_pair_seq(n, 1);
    const auto rnd = workloads::random_pair_seq(n, 2);
    bench_distribution<pair_entry<combine_min>>("randomSeq-pairInt", ins, rnd,
                                                [](const kv64& v) { return v.k; });
  }
  {
    const auto ins = workloads::trigram_string_seq(n, 1);
    const auto rnd = workloads::trigram_string_seq(n, 2);
    bench_distribution<string_entry>("trigramSeq", ins.keys, rnd.keys,
                                     [](const char* v) { return v; });
  }
  {
    const auto ins = workloads::trigram_pair_seq(n, 1);
    const auto rnd = workloads::trigram_pair_seq(n, 2);
    bench_distribution<string_pair_entry>(
        "trigramSeq-pairInt", ins.entries, rnd.entries,
        [](const string_kv* v) { return v->key; }, &kFig3b);
  }
  {
    const auto ins = workloads::expt_int_seq(n, 1);
    const auto rnd = workloads::expt_int_seq(n, 2);
    bench_distribution<int_entry<>>("exptSeq-int", ins, rnd,
                                    [](std::uint64_t v) { return v; });
  }
  {
    const auto ins = workloads::expt_pair_seq(n, 1);
    const auto rnd = workloads::expt_pair_seq(n, 2);
    bench_distribution<pair_entry<combine_min>>("exptSeq-pairInt", ins, rnd,
                                                [](const kv64& v) { return v.k; });
  }
  return 0;
}
