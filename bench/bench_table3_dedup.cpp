// Table 3: remove duplicates with four tables on randomSeq-int,
// trigramSeq-pairInt, exptSeq-int.
//
// Shape (paper, 40h): linearHash-D within 0-23% of linearHash-ND; both
// clearly faster than cuckooHash; chainedHash-CR slowest.
//
// Writes BENCH_dedup.json (or argv[1]) with the measured seconds and, per
// panel, the obs snapshot delta the runs generated — all zeros unless the
// build has PHCH_TELEMETRY=ON.
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_tables.h"
#include "phch/apps/remove_duplicates.h"
#include "phch/obs/export.h"
#include "phch/obs/telemetry.h"
#include "phch/workloads/sequences.h"
#include "phch/workloads/trigram.h"

using namespace phch;
using namespace phch::bench;

namespace {

struct panel_result {
  std::string name;
  double d = 0, nd = 0, ck = 0, ch = 0;  // seconds
  obs::metrics_snapshot metrics;         // obs delta across the panel
};

std::vector<panel_result> results;

// Paper (40h) seconds: {linearHash-D, linearHash-ND, cuckoo, chained-CR}.
template <typename Traits, typename V>
void panel(const char* name, const std::vector<V>& input, const double paper[4]) {
  // Paper: table size 2^27 for n = 1e8, i.e. ~1.3n.
  const std::size_t cap = round_up_pow2(input.size() + input.size() / 3);
  print_header(name, input.size());
  panel_result r;
  r.name = name;
  const obs::metrics_snapshot before = obs::snapshot();
  const auto secs = run_paper_backends<Traits>([&]<typename Table>(std::size_t row) {
    const std::size_t c = row == kCuckooRow ? 2 * cap : cap;
    return time_median([] {},
                       [&] { apps::remove_duplicates<Table>(input, c); });
  });
  r.metrics = obs::snapshot() - before;
  r.d = secs[0];
  r.nd = secs[1];
  r.ck = secs[2];
  r.ch = secs[3];
  print_backend_rows(secs, paper);
  print_ratio("linearHash-D / linearHash-ND", r.d / r.nd, paper[0] / paper[1]);
  print_ratio("cuckooHash / linearHash-D", r.ck / r.d, paper[2] / paper[0]);
  results.push_back(std::move(r));
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_dedup.json";
  const std::size_t n = scaled_size(1000000);
  std::printf("Table 3: remove duplicates (paper: n = 1e8, 40h)\n");
  {
    const double paper[4] = {0.212, 0.212, 0.417, 1.32};
    panel<int_entry<>>("randomSeq-int", workloads::random_int_seq(n, 1), paper);
  }
  {
    const double paper[4] = {0.242, 0.213, 0.300, 0.586};
    const auto in = workloads::trigram_pair_seq(n, 1);
    panel<string_pair_entry>("trigramSeq-pairInt", in.entries, paper);
  }
  {
    const double paper[4] = {0.139, 0.116, 0.185, 0.541};
    panel<int_entry<>>("exptSeq-int", workloads::expt_int_seq(n, 1), paper);
  }

  FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"table3_dedup\",\n  \"n\": %zu,\n", n);
  std::fprintf(f, "  \"telemetry_compiled\": %s,\n  \"panels\": [",
               obs::compiled ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\",\n"
                 "     \"linearHash_D_s\": %.4f, \"linearHash_ND_s\": %.4f,\n"
                 "     \"cuckoo_s\": %.4f, \"chained_CR_s\": %.4f,\n     ",
                 i == 0 ? "" : ",", r.name.c_str(), r.d, r.nd, r.ck, r.ch);
    obs::write_snapshot_json(f, r.metrics, "     ");
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
