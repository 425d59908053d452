// Remove-duplicates tool over the paper's input distributions (§5/§6).
//
//   ./dedup_tool [n] [uniform|expt|trigram]
//
// Runs the remove-duplicates application with the deterministic table and
// the non-deterministic linear-probing baseline, reporting times and
// verifying that the deterministic output is reproducible: exits 1 if the
// linearHash-D order differs between two runs. The linearHash-ND order may
// legitimately differ, so its line is only printed. Inserts go through the
// software-pipelined batch path (core/batch_ops.h), kBatchWidth in-flight
// probes per worker.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "phch/apps/remove_duplicates.h"
#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/table_common.h"
#include "phch/utils/timer.h"
#include "phch/workloads/sequences.h"
#include "phch/workloads/trigram.h"

using namespace phch;

// String keys are stored by pointer; equal contents at different addresses
// are the same key, so reproducibility is judged on contents.
static bool same_key(const char* a, const char* b) { return std::strcmp(a, b) == 0; }
static bool same_key(std::uint64_t a, std::uint64_t b) { return a == b; }

// Runs the dedup twice and returns whether both runs gave the same order.
template <typename Table, typename Seq>
static bool run(const char* label, const Seq& input, std::size_t cap) {
  timer t;
  const auto out = apps::remove_duplicates<Table>(input, cap);
  const double first = t.elapsed();
  t.reset();
  const auto again = apps::remove_duplicates<Table>(input, cap);
  const double second = t.elapsed();
  const bool stable =
      out.size() == again.size() &&
      std::equal(out.begin(), out.end(), again.begin(),
                 [](const auto& a, const auto& b) { return same_key(a, b); });
  std::printf("  %-16s %9zu unique   %.3fs / %.3fs   reproducible order: %s\n", label,
              out.size(), first, second, stable ? "yes" : "no");
  return stable;
}

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000000;
  const char* dist = argc > 2 ? argv[2] : "uniform";
  const std::size_t cap = round_up_pow2(2 * n);
  std::printf("dedup_tool: n = %zu, distribution = %s, %d threads, "
              "batch width %zu\n",
              n, dist, num_workers(), kBatchWidth);

  bool reproducible = false;
  if (std::strcmp(dist, "trigram") == 0) {
    const auto words = workloads::trigram_string_seq(n, 1);
    reproducible = run<deterministic_table<string_entry>>("linearHash-D", words.keys, cap);
    run<nd_linear_table<string_entry>>("linearHash-ND", words.keys, cap);
  } else if (std::strcmp(dist, "expt") == 0) {
    const auto seq = workloads::expt_int_seq(n, 1);
    reproducible = run<deterministic_table<int_entry<>>>("linearHash-D", seq, cap);
    run<nd_linear_table<int_entry<>>>("linearHash-ND", seq, cap);
  } else {
    const auto seq = workloads::random_int_seq(n, 1);
    reproducible = run<deterministic_table<int_entry<>>>("linearHash-D", seq, cap);
    run<nd_linear_table<int_entry<>>>("linearHash-ND", seq, cap);
  }
  std::printf("note: the ND table returns the right *set*, but its order can\n"
              "      change run to run; the deterministic table's cannot.\n");
  return reproducible ? 0 : 1;
}
