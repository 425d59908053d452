// The probe-depth histogram (src/phch/obs/histogram.h, recorded through
// obs/telemetry.h's stripes): log-linear bucket math, snapshot
// subtract/quantile behavior, the process-wide probe-depth ledger, and the
// compiled-out contract. The concurrent record-while-drain
// hammers run under the TSan CI job.
//
// This file compiles and passes in both build modes: the bucket math is
// constexpr and mode-independent; the recording tests skip when the layer
// is compiled out, where they instead assert it really is compiled out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <type_traits>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/deterministic_table.h"
#include "phch/core/nd_linear_table.h"
#include "phch/core/table_common.h"
#include "phch/obs/histogram.h"
#include "phch/obs/telemetry.h"
#include "phch/obs/trace.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/scheduler.h"
#include "phch/workloads/sequences.h"
#include "table_test_util.h"

namespace phch {
namespace {

using obs::hist_bucket;
using obs::hist_bucket_lower;
using obs::hist_bucket_upper;
using obs::kHistBuckets;

// ---------------------------------------------------------------------------
// Bucket math (both modes; everything here is constexpr-evaluable).

TEST(HistBuckets, SmallValuesAreExact) {
  // Values below the first log-linear octave land in their own bucket, so
  // small probe depths (the common case) lose no resolution at all.
  for (std::uint64_t v = 0; v < 8; ++v) {
    SCOPED_TRACE(v);
    EXPECT_EQ(hist_bucket_lower(hist_bucket(v)), v);
    EXPECT_EQ(hist_bucket_upper(hist_bucket(v)), v);
  }
}

TEST(HistBuckets, EveryValueFallsInItsBucketBounds) {
  // Exhaustive near the small end, then power-of-two neighborhoods.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 4096; ++v) probes.push_back(v);
  for (int e = 12; e < 64; ++e) {
    const std::uint64_t p = 1ULL << e;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
    probes.push_back(p + (p >> 1));  // mid-octave
  }
  probes.push_back(std::numeric_limits<std::uint64_t>::max());
  std::size_t prev_bucket = 0;
  std::uint64_t prev_v = 0;
  for (const std::uint64_t v : probes) {
    SCOPED_TRACE(v);
    const std::size_t b = hist_bucket(v);
    ASSERT_LT(b, kHistBuckets);
    EXPECT_LE(hist_bucket_lower(b), v);
    EXPECT_GE(hist_bucket_upper(b), v);
    // Monotone: a larger value never lands in a smaller bucket.
    if (v >= prev_v) {
      EXPECT_GE(b, prev_bucket);
    }
    prev_bucket = b;
    prev_v = v;
  }
}

TEST(HistBuckets, BucketsTileTheRange) {
  // Bounds are contiguous: each bucket begins one past the previous end,
  // and the inverse maps every bucket's bounds back to itself.
  EXPECT_EQ(hist_bucket_lower(0), 0u);
  for (std::size_t b = 0; b + 1 < kHistBuckets; ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(hist_bucket_lower(b + 1), hist_bucket_upper(b) + 1);
    EXPECT_EQ(hist_bucket(hist_bucket_lower(b)), b);
    EXPECT_EQ(hist_bucket(hist_bucket_upper(b)), b);
  }
  EXPECT_EQ(hist_bucket(std::numeric_limits<std::uint64_t>::max()),
            kHistBuckets - 1);
  EXPECT_EQ(hist_bucket_upper(kHistBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(HistBuckets, RelativeErrorIsBounded) {
  // Log-linear with 4 sub-buckets per octave: bucket width <= 1/4 of the
  // bucket's lower bound, i.e. <= 25% relative error for any estimate read
  // back from a bucket.
  for (std::size_t b = 4; b + 1 < kHistBuckets; ++b) {
    SCOPED_TRACE(b);
    const std::uint64_t lo = hist_bucket_lower(b);
    const std::uint64_t hi = hist_bucket_upper(b);
    EXPECT_LE(hi - lo, lo / 4 + 1);
  }
}

// ---------------------------------------------------------------------------
// Snapshot arithmetic (both modes: hist_snapshot is a plain struct).

TEST(HistSnapshot, MeanAndQuantile) {
  obs::hist_snapshot a{};
  for (std::uint64_t v = 1; v <= 100; ++v) {
    const std::size_t b = hist_bucket(v);
    a.buckets[b] += 1;
    a.count += 1;
    a.sum += v;
    if (v > a.max) a.max = v;
  }
  EXPECT_EQ(a.count, 100u);
  EXPECT_DOUBLE_EQ(a.mean(), 50.5);
  // Small quantiles are exact (unit buckets at the low end)...
  EXPECT_DOUBLE_EQ(a.quantile(0.001), 1.0);
  // ...larger ones interpolate within the true value's bucket.
  const double p50 = a.quantile(0.50);
  EXPECT_GE(p50, static_cast<double>(hist_bucket_lower(hist_bucket(50))));
  EXPECT_LE(p50, static_cast<double>(hist_bucket_upper(hist_bucket(50))));
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 100.0);  // clamped by the exact max
}

TEST(HistSnapshot, SubtractIsBucketwise) {
  obs::metrics_snapshot before{};
  obs::metrics_snapshot after{};
  before.totals[static_cast<std::size_t>(obs::counter::find_ops)] = 5;
  after.totals[static_cast<std::size_t>(obs::counter::find_ops)] = 9;
  obs::hist_snapshot& b = before.probe_depth;
  obs::hist_snapshot& a = after.probe_depth;
  b.buckets[hist_bucket(2)] = 1;
  b.count = 1;
  b.sum = 2;
  b.max = 2;
  a = b;
  a.buckets[hist_bucket(2)] += 2;
  a.buckets[hist_bucket(40)] += 1;
  a.count += 3;
  a.sum += 2 + 2 + 40;
  a.max = 40;
  const obs::metrics_snapshot d = after - before;
  EXPECT_EQ(d[obs::counter::find_ops], 4u);
  const obs::hist_snapshot& h = d.probe_depth;
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 44u);
  EXPECT_EQ(h.buckets[hist_bucket(2)], 2u);
  EXPECT_EQ(h.buckets[hist_bucket(40)], 1u);
  EXPECT_EQ(h.max, 40u);
  // The window's max is bounded by its highest occupied bucket, not by an
  // earlier, larger sample.
  obs::metrics_snapshot later = after;
  obs::hist_snapshot& l = later.probe_depth;
  l.buckets[hist_bucket(3)] += 1;
  l.count += 1;
  l.sum += 3;
  EXPECT_EQ((later - after).probe_depth.max, 3u);
  EXPECT_EQ((after - after).probe_depth.max, 0u);
  // A bucket neither reading touched stays zero in the difference.
  EXPECT_EQ(d.probe_depth.buckets[hist_bucket(3)], 0u);
}

TEST(HistSnapshot, EmptyQuantileIsZero) {
  const obs::hist_snapshot empty{};
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.max, 0u);
}

// ---------------------------------------------------------------------------
// Compiled-out contract.

TEST(HistogramOff, LayerIsCompiledOut) {
  if (obs::compiled) GTEST_SKIP() << "telemetry compiled in";
  static_assert(obs::compiled || std::is_trivially_destructible_v<obs::op_tally>);
  {
    obs::op_tally t(obs::counter::find_ops);
    t.slots = 3;
  }  // records nothing
  obs::hist_accum a;
  a.note(3);
  EXPECT_TRUE(a.empty());  // the accumulator is a no-op too
  obs::record_probe_depth(a);
  const obs::metrics_snapshot s = obs::snapshot();
  EXPECT_EQ(s.probe_depth.count, 0u);
  EXPECT_EQ(s.probe_depth.sum, 0u);
}

// ---------------------------------------------------------------------------
// Recording (telemetry builds only).

class HistogramOn : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::compiled) GTEST_SKIP() << "telemetry compiled out";
    obs::reset();
  }
  void TearDown() override {
    if (obs::compiled) scheduler::get().set_num_workers(4);
  }
};

obs::hist_snapshot probe_depth_now() {
  return obs::snapshot().probe_depth;
}

// Inserts `n` keys (with duplicates) through the scalar or the block path,
// finds every key, and erases the distinct ones, all at `workers` workers.
// Checks the probe-depth ledger on that window, read once with the table
// alive and once after it is gone.
template <typename Table>
void check_probe_ledger(bool block, int workers) {
  SCOPED_TRACE(::testing::Message() << "block=" << block << " workers=" << workers);
  scheduler::get().set_num_workers(workers);
  const std::size_t n = 3000;
  const auto keys = workloads::random_int_seq(n, 11);
  std::vector<std::uint64_t> uniq(keys);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  const obs::metrics_snapshot before = obs::snapshot();
  obs::metrics_snapshot live;
  {
    Table t(1 << 12);
    if (block) {
      insert_batch(t, keys);
    } else {
      test::parallel_insert(t, keys);
    }
    const auto found = block ? find_batch(t, keys) : test::find_batch_scalar(t, keys);
    ASSERT_EQ(found.size(), n);
    if (block) {
      erase_batch(t, uniq);
    } else {
      test::parallel_erase(t, uniq);
    }
    live = obs::snapshot();
  }
  for (const bool destroy_first : {false, true}) {
    SCOPED_TRACE(destroy_first);
    // One probe-depth sample per operation, exactly, and it survives the
    // table's destruction (no table owns histogram state).
    const obs::metrics_snapshot d =
        (destroy_first ? obs::snapshot() : live) - before;
    const obs::hist_snapshot& depth = d.probe_depth;
    const std::uint64_t ops = d[obs::counter::find_ops] +
                              d[obs::counter::insert_ops] +
                              d[obs::counter::erase_ops];
    EXPECT_EQ(ops, n + n + uniq.size());
    // Linear-probing inserts never give up (only cuckoo and hopscotch do).
    EXPECT_EQ(d[obs::counter::insert_aborts], 0u);
    EXPECT_EQ(depth.count, ops);
    // Every slot load is in exactly one sample.
    EXPECT_EQ(depth.sum,
              d[obs::counter::probe_slots] + d[obs::counter::batch_probe_slots]);
    // Each block insert and erase is handed to the scalar loop once; the
    // scalar path hands off nothing.
    EXPECT_EQ(d[obs::counter::batch_handoffs], block ? n + uniq.size() : 0u);
    EXPECT_GE(depth.sum, depth.count);  // every op probes at least one slot
    EXPECT_GE(depth.max, 1u);
  }
}

TEST_F(HistogramOn, ProbeDepthLedgerMatchesOpCounters) {
  for (const int p : {1, 4}) {
    for (const bool block : {false, true}) {
      check_probe_ledger<deterministic_table<>>(block, p);
      check_probe_ledger<nd_linear_table<>>(block, p);
    }
  }
}

TEST_F(HistogramOn, BlockFlushMatchesPerSampleRecords) {
  // The pipelined engines' block accumulator must be indistinguishable
  // from per-sample records once flushed.
  obs::hist_accum a;
  EXPECT_TRUE(a.empty());
  for (std::uint64_t v = 0; v <= 100; ++v) a.note(v);
  EXPECT_FALSE(a.empty());
  obs::record_probe_depth(a);
  const obs::hist_snapshot s = probe_depth_now();
  obs::reset();
  for (std::uint64_t v = 0; v <= 100; ++v) {
    obs::op_tally t(obs::counter::find_ops);
    t.slots = v;
  }
  const obs::hist_snapshot r = probe_depth_now();
  EXPECT_EQ(s.buckets, r.buckets);
  EXPECT_EQ(s.count, 101u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_EQ(s.max, 100u);
}

// Runs `record(i)` for every i in [0, n) from all workers while a drainer
// thread repeatedly takes snapshots. Mid-drain sums may be partial
// (stripes are read one by one) but counts only grow, nothing may fault or
// trip TSan, and the post-join snapshot is exact.
template <typename Record>
obs::hist_snapshot hammer_while_draining(std::size_t n, Record record) {
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const obs::hist_snapshot s = probe_depth_now();
      EXPECT_GE(s.count, last);
      last = s.count;
    }
  });
  parallel_for(0, n, record);
  stop.store(true, std::memory_order_release);
  drainer.join();
  const obs::hist_snapshot s = probe_depth_now();
  std::uint64_t bucket_total = 0;
  for (const auto c : s.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count);
  return s;
}

// The TSan-job hammer for the per-op path: each op_tally flushes one
// sample when it goes out of scope.
TEST_F(HistogramOn, ConcurrentRecordWhileDrainIsRaceFree) {
  constexpr std::size_t kPerWorker = 20000;
  const std::size_t n = static_cast<std::size_t>(num_workers()) * kPerWorker;
  const obs::hist_snapshot s = hammer_while_draining(n, [](std::size_t i) {
    obs::op_tally t(obs::counter::find_ops);
    t.slots = 1 + i % 61;
  });
  EXPECT_EQ(s.count, n);
  EXPECT_EQ(s.max, 61u);
}

// Same hammer through the block-flush path the pipelined engines use:
// workers accumulate locally and flush whole blocks.
TEST_F(HistogramOn, ConcurrentBlockFlushWhileDrainIsRaceFree) {
  constexpr std::size_t kBlocks = 200;
  constexpr std::size_t kPerBlock = 100;
  const std::size_t n = static_cast<std::size_t>(num_workers()) * kBlocks;
  const obs::hist_snapshot s = hammer_while_draining(n, [](std::size_t i) {
    obs::hist_accum a;
    for (std::uint64_t v = 1; v <= kPerBlock; ++v) a.note((i + v) % 61 + 1);
    obs::record_probe_depth(a);
  });
  EXPECT_EQ(s.count, n * kPerBlock);
  EXPECT_EQ(s.max, 61u);  // kPerBlock > 61, so every block sees the max
}

}  // namespace
}  // namespace phch
