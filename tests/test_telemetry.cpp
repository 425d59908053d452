// Telemetry layer (src/phch/obs/): zero-overhead-when-off contract, counter
// exactness at phase boundaries, marks, trace rings, and exporters.
//
// This file compiles and passes in both build modes. With PHCH_TELEMETRY
// off (the default) it asserts that the layer really is compiled out —
// instrumented classes carry no extra state and every entry point is a
// no-op. With -DPHCH_TELEMETRY=ON it checks the layer's defining property:
// counter sums read at a quiescent point equal the reference operation
// counts *exactly*, for every worker count, on both the scalar and the
// software-pipelined batch paths. The hammer tests run the counter and
// ring paths from every worker concurrently and are part of the TSan CI
// job.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/phase_runtime.h"
#include "phch/core/table_common.h"
#include "phch/obs/export.h"
#include "phch/obs/telemetry.h"
#include "phch/obs/trace.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/scheduler.h"
#include "phch/utils/rand.h"
#include "phch/workloads/sequences.h"
#include "table_test_util.h"

namespace phch {
namespace {

using obs::counter;

// ---------------------------------------------------------------------------
// Compiled-out contract (runs only in the default build).

TEST(TelemetryOff, LayerIsCompiledOut) {
  if (obs::compiled) GTEST_SKIP() << "telemetry compiled in";
  // A table's phase state is exactly the one phase_runtime cache line. That
  // word is functional (it drives phase tracking and checking), not
  // telemetry — compiling obs in must not widen it.
  EXPECT_EQ(sizeof(phase_runtime), 64u);
  obs::count(counter::probe_slots, 123);
  EXPECT_EQ(obs::snapshot()[counter::probe_slots], 0u);
  const obs::metrics_snapshot m = obs::snapshot();
  for (const auto v : m.totals) EXPECT_EQ(v, 0u);
  EXPECT_EQ(m.probe_depth.count, 0u);
  obs::mark("off");
  EXPECT_TRUE(obs::marks().empty());
  EXPECT_TRUE(obs::drain_trace().events.empty());
  EXPECT_FALSE(obs::write_metrics_json("/tmp/phch_off_metrics.json"));
  EXPECT_FALSE(obs::write_chrome_trace("/tmp/phch_off_trace.json"));
}

TEST(TelemetryOff, OpTallyIsInert) {
  if (obs::compiled) GTEST_SKIP() << "telemetry compiled in";
  // Compiled out, a scalar op's record is plain dead stores.
  static_assert(obs::compiled || std::is_trivially_destructible_v<obs::op_tally>);
  {
    obs::op_tally t(counter::insert_ops);
    t.set_outcome(counter::insert_commits);
    t.slots = 7;
    t.cas = 3;
    t.cas_failed = 1;
  }  // nothing may be published
  EXPECT_EQ(obs::snapshot()[counter::probe_slots], 0u);
  EXPECT_EQ(obs::snapshot()[counter::cas_attempts], 0u);
  EXPECT_EQ(obs::snapshot()[counter::insert_ops], 0u);
  EXPECT_EQ(obs::snapshot().probe_depth.count, 0u);
}

// ---------------------------------------------------------------------------
// Compiled-in behavior: every event is recorded.

class TelemetryOn : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::compiled) GTEST_SKIP() << "telemetry compiled out";
    obs::reset();
  }
  void TearDown() override {
    if (obs::compiled) {
      obs::reset();
      scheduler::get().set_num_workers(4);  // the suite's PHCH_THREADS value
    }
  }
};

struct op_refs {
  std::uint64_t n = 0;       // inserts issued
  std::uint64_t unique = 0;  // distinct keys (= expected commits)
};

// Inserts `n` keys (with duplicates), finds them all, erases the unique
// set, and checks every counter delta against its closed-form reference.
template <bool kBatch>
void check_exactness(int workers) {
  scheduler::get().set_num_workers(workers);
  const std::size_t n = 40000;
  const auto seq = workloads::random_int_seq(n, 21);
  const std::set<std::uint64_t> ref(seq.begin(), seq.end());
  const std::vector<std::uint64_t> uniq(ref.begin(), ref.end());

  obs::reset();
  deterministic_table<int_entry<>> t(1 << 17);
  const obs::metrics_snapshot t0 = obs::snapshot();
  if constexpr (kBatch) {
    insert_batch(t, seq);
  } else {
    test::parallel_insert(t, seq);
  }
  const obs::metrics_snapshot after_insert = obs::snapshot();
  const auto found = kBatch ? find_batch(t, seq) : test::find_batch_scalar(t, seq);
  const obs::metrics_snapshot after_find = obs::snapshot();
  if constexpr (kBatch) {
    erase_batch(t, uniq);
  } else {
    test::parallel_erase(t, uniq);
  }
  const obs::metrics_snapshot after_erase = obs::snapshot();

  // Insert phase: one op per input element, one commit per distinct key,
  // the rest are duplicate resolutions. Exact at any worker count.
  const obs::metrics_snapshot di = after_insert - t0;
  EXPECT_EQ(di[counter::insert_ops], n) << "workers=" << workers;
  EXPECT_EQ(di[counter::insert_commits], ref.size());
  EXPECT_EQ(di[counter::insert_dups], n - ref.size());
  EXPECT_EQ(di[counter::insert_aborts], 0u);
  EXPECT_EQ(di[counter::find_ops], 0u);
  EXPECT_EQ(di[counter::erase_ops], 0u);

  // Find phase: every key is present.
  const obs::metrics_snapshot df = after_find - after_insert;
  ASSERT_EQ(found.size(), n);
  EXPECT_EQ(df[counter::find_ops], n);
  EXPECT_EQ(df[counter::find_hits], n);
  EXPECT_EQ(df[counter::insert_ops], 0u);

  // Erase phase: each distinct key removed exactly once.
  const obs::metrics_snapshot de = after_erase - after_find;
  EXPECT_EQ(de[counter::erase_ops], uniq.size());
  EXPECT_EQ(de[counter::erase_hits], uniq.size());
  EXPECT_EQ(t.count(), 0u);

  if (workers == 1) {
    // A single worker can never lose a CAS.
    EXPECT_EQ((after_erase - t0)[counter::cas_failures], 0u);
  }
}

TEST_F(TelemetryOn, CounterExactnessScalarPath) {
  for (const int p : {1, 4, 8}) check_exactness<false>(p);
}

TEST_F(TelemetryOn, CounterExactnessBatchPath) {
  for (const int p : {1, 4, 8}) check_exactness<true>(p);
}

TEST_F(TelemetryOn, MarksCaptureQuiescentDeltas) {
  deterministic_table<int_entry<>> t(1 << 12);
  const auto keys = workloads::random_int_seq(1000, 5);
  obs::mark("t0");
  obs::count(counter::steals, 3);
  obs::mark("t1");
  obs::count(counter::steals, 4);
  obs::mark("t2");
  // A phase on a linear-probing table between t2 and t3: 1000 pipelined
  // inserts and 600 scalar finds, each one probe-depth sample.
  insert_batch(t, keys);
  for (std::size_t i = 0; i < 600; ++i) (void)t.find(keys[i]);
  obs::mark("t3");
  const auto ms = obs::marks();
  ASSERT_EQ(ms.size(), 4u);
  EXPECT_EQ(ms[0].label, "t0");
  EXPECT_EQ((ms[1].metrics - ms[0].metrics)[counter::steals], 3u);
  EXPECT_EQ((ms[2].metrics - ms[1].metrics)[counter::steals], 4u);
  EXPECT_EQ((ms[2].metrics - ms[1].metrics).probe_depth.count, 0u);
  const obs::metrics_snapshot phase = ms[3].metrics - ms[2].metrics;
  EXPECT_EQ(phase[counter::insert_ops] + phase[counter::find_ops], 1600u);
  EXPECT_EQ(phase.probe_depth.count, 1600u);
  EXPECT_LE(ms[0].ts_ns, ms[1].ts_ns);
}

TEST_F(TelemetryOn, PhaseTransitionsRecordedOncePerBoundary) {
  deterministic_table<int_entry<>> t(1 << 10);
  test::parallel_insert(t, std::vector<std::uint64_t>{1, 2, 3});
  (void)t.find(1);  // insert -> query boundary
  t.erase(2);       // query -> erase boundary
  (void)t.find(3);  // erase -> query boundary
  // 4 transitions: first-op, plus the three class changes.
  EXPECT_EQ(obs::snapshot()[counter::phase_transitions], 4u);
  const auto tr = obs::drain_trace();
  std::vector<std::string> phases;
  for (const auto& e : tr.events) {
    if (e.kind == obs::event_kind::phase_begin) phases.emplace_back(e.name);
  }
  const std::vector<std::string> want{"phase:insert", "phase:query", "phase:erase",
                                      "phase:query"};
  EXPECT_EQ(phases, want);
}

TEST_F(TelemetryOn, SpansAndSchedulerEventsAppearInTrace) {
  {
    obs::span sp("test:span");
    sp.a = 7;
    sp.b = 99;
    std::vector<int> v(10000);
    parallel_for(0, v.size(), [&](std::size_t i) { v[i] = static_cast<int>(i); });
  }
  const auto tr = obs::drain_trace();
  bool saw_test_span = false, saw_root_loop = false;
  for (const auto& e : tr.events) {
    if (e.kind != obs::event_kind::span) continue;
    if (std::string(e.name) == "test:span") {
      saw_test_span = true;
      EXPECT_EQ(e.a, 7u);
      EXPECT_EQ(e.b, 99u);
    }
    if (std::string(e.name) == "parallel_for") saw_root_loop = true;
  }
  EXPECT_TRUE(saw_test_span);
  EXPECT_TRUE(saw_root_loop);
}

TEST_F(TelemetryOn, ExportersWriteParsableFiles) {
  deterministic_table<int_entry<>> t(1 << 12);
  obs::mark("export/start");
  insert_batch(t, workloads::random_int_seq(5000, 3));
  obs::mark("export/inserted");
  const std::string mpath = ::testing::TempDir() + "phch_metrics.json";
  const std::string tpath = ::testing::TempDir() + "phch_trace.json";
  ASSERT_TRUE(obs::write_metrics_json(mpath.c_str()));
  ASSERT_TRUE(obs::write_chrome_trace(tpath.c_str()));
  for (const std::string& p : {mpath, tpath}) {
    std::FILE* f = std::fopen(p.c_str(), "r");
    ASSERT_NE(f, nullptr) << p;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 16L) << p;
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fgetc(f), '{') << p;
    std::fclose(f);
  }
  // The metrics file must contain the marks and a counter we know ticked.
  std::FILE* f = std::fopen(mpath.c_str(), "r");
  std::string body;
  for (int c; (c = std::fgetc(f)) != EOF;) body.push_back(static_cast<char>(c));
  std::fclose(f);
  EXPECT_NE(body.find("\"export/inserted\""), std::string::npos);
  EXPECT_NE(body.find("\"insert_commits\""), std::string::npos);
}

// Run the counter and ring hot paths from every worker at once; with
// PHCH_SANITIZE=thread this is the data-race check for the whole layer.
TEST_F(TelemetryOn, ConcurrentCountersAndRingsAreRaceFree) {
  const std::size_t n = 100000;
  parallel_for(0, n, [&](std::size_t i) {
    obs::count(counter::probe_slots);
    if (i % 64 == 0) {
      obs::record_event(obs::event_kind::span, "hammer", static_cast<std::uint32_t>(i),
                        i, obs::now_ns(), 1);
    }
  });
  EXPECT_EQ(obs::snapshot()[counter::probe_slots], n);
  const auto tr = obs::drain_trace();
  // Rings keep the newest kRingCapacity events per stripe; everything else
  // is accounted as dropped, never lost silently. The run records exactly
  // ceil(n/64) hammer events plus the loop's own root span.
  EXPECT_EQ(tr.events.size() + tr.dropped, (n + 63) / 64 + 1);
}

}  // namespace
}  // namespace phch
