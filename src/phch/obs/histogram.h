// Distribution telemetry (striped log-linear histograms) and the one
// observability snapshot.
//
// The counters (obs/telemetry.h) say how many events happened; this layer
// says how they are *distributed* — probe depth per operation, sampled
// operation latency, and growth migration times.
// Distributions are what the paper's phase-concurrency argument actually
// claims things about (expected O(1) probes at fixed load, contention-free
// phases), and what tail-latency engineering needs.
//
// Encoding. HDR-style log-linear buckets: values 0..3 get their own bucket,
// and every octave above that is split into 2^kHistSubBits = 4 sub-buckets,
// giving <= 25% relative bucket width over the full 64-bit range in
// kHistBuckets = 252 buckets. hist_bucket / hist_bucket_lower /
// hist_bucket_upper are pure constexpr functions available in both build
// modes (the unit tests exercise them compiled-out too).
//
// Storage. Each histogram kind is one process-wide striped_histogram, the
// same way the counters are process-wide: kHistStripes = 8
// cache-line-aligned stripes of relaxed atomic buckets, and record() is
// two relaxed fetch_adds and a relaxed max-CAS on the caller's stripe. The
// pipelined engines do not even pay that: they note() samples into a
// block-local hist_accum (plain stack memory, like their other tallies) and
// hist_record() the whole thing once per block. Like the counters, sums
// over stripes are exact at a quiescent point and approximate mid-phase,
// and totals stay exact across table destruction because no table owns any
// histogram state. That is what makes the probe-depth ledger (sample count
// == find_ops + insert_ops + erase_ops) checkable after a workload's tables
// are gone.
//
// The snapshot. metrics_snapshot is the one reading of the whole plane:
// every counter plus every histogram, taken by snapshot() at a quiescent
// point (Definition 1's phase boundaries). Marks (obs/trace.h) store one,
// the exporters (obs/export.h) serialize one, and the difference of two is
// the exact per-phase delta.
//
// Latency sampling. Timestamps are too expensive per op, so op latency is
// sampled 1-in-kLatencySamplePeriod per thread: a thread-local countdown
// arms a latency_sampler only when it hits zero, so the un-sampled hot path
// never reads the clock.
//
// Everything below except the bucket math and the snapshot types compiles
// to empty inline no-ops when PHCH_TELEMETRY is off, exactly like the
// counters.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "phch/obs/telemetry.h"

namespace phch::obs {

// --- bucket math (both build modes; pure and constexpr) ---------------------

inline constexpr std::uint32_t kHistSubBits = 2;  // 4 sub-buckets per octave
inline constexpr std::uint32_t kHistSubBuckets = 1u << kHistSubBits;
// Max index is hist_bucket(UINT64_MAX) = ((63 - 2 + 1) << 2) + 3 = 251.
inline constexpr std::uint32_t kHistBuckets = 252;

constexpr std::uint32_t hist_bucket(std::uint64_t v) noexcept {
  if (v < kHistSubBuckets) return static_cast<std::uint32_t>(v);
  const auto e = static_cast<std::uint32_t>(63 - std::countl_zero(v));
  return ((e - kHistSubBits + 1) << kHistSubBits) +
         static_cast<std::uint32_t>((v >> (e - kHistSubBits)) &
                                    (kHistSubBuckets - 1));
}

// Smallest value mapping to bucket `idx` (inverse of hist_bucket).
constexpr std::uint64_t hist_bucket_lower(std::uint32_t idx) noexcept {
  if (idx < kHistSubBuckets) return idx;
  const std::uint32_t e = (idx >> kHistSubBits) + kHistSubBits - 1;
  const std::uint64_t pos = idx & (kHistSubBuckets - 1);
  return (std::uint64_t{1} << e) + (pos << (e - kHistSubBits));
}

// Largest value mapping to bucket `idx` (saturates for the top bucket).
constexpr std::uint64_t hist_bucket_upper(std::uint32_t idx) noexcept {
  return idx + 1 < kHistBuckets ? hist_bucket_lower(idx + 1) - 1
                                : ~std::uint64_t{0};
}

// A quiescent-point reading of one histogram (merged over stripes). Plain
// data in both modes; all-zero when the layer is compiled out.
struct hist_snapshot {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  std::uint64_t count = 0;  // sum of buckets
  std::uint64_t sum = 0;    // sum of recorded values
  std::uint64_t max = 0;    // largest recorded value (exact, not bucketed)

  double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Quantile estimate (q in [0,1]): linear interpolation inside the owning
  // bucket, clamped by the exact max. q=1 returns max exactly.
  double quantile(double q) const noexcept {
    if (count == 0) return 0.0;
    if (q >= 1.0) return static_cast<double>(max);
    if (q < 0.0) q = 0.0;
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
      const double c = static_cast<double>(buckets[i]);
      if (c == 0.0) continue;
      if (cum + c > target) {
        const double lo = static_cast<double>(hist_bucket_lower(i));
        double hi = static_cast<double>(hist_bucket_upper(i));
        const double mx = static_cast<double>(max);
        if (mx < hi) hi = mx;  // top bucket can't exceed the exact max
        const double frac = (target - cum) / c;
        return lo + (hi - lo) * frac;
      }
      cum += c;
    }
    return static_cast<double>(max);
  }
};

// Every histogram the runtime keeps.
enum class hist : std::uint8_t {
  probe_depth,     // slots inspected per linear-probing op (scalar + pipelined)
  op_latency_ns,   // sampled wall time per scalar op (1-in-kLatencySamplePeriod)
  growth_ns,       // growable_table migration duration
  kCount
};
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(hist::kCount);

inline const char* hist_name(hist h) noexcept {
  static constexpr const char* names[kNumHists] = {
      "probe_depth", "op_latency_ns", "growth_ns"};
  const auto i = static_cast<std::size_t>(h);
  return i < kNumHists ? names[i] : "?";
}

// Bucket-by-bucket difference of two readings of one histogram (`a` taken
// after `b`). Counts and sums are exact. The window's max is not recorded,
// so the difference's max is an upper bound: `a`'s running max, capped by
// the top of the highest bucket the window occupies.
inline hist_snapshot operator-(const hist_snapshot& a, const hist_snapshot& b) {
  hist_snapshot d;
  for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
    d.buckets[i] = a.buckets[i] - b.buckets[i];
    if (d.buckets[i] != 0) d.max = std::min(a.max, hist_bucket_upper(i));
  }
  d.count = a.count - b.count;
  d.sum = a.sum - b.sum;
  return d;
}

// A quiescent-point reading of every counter and every histogram (sums
// over stripes). Returned by snapshot() in both modes; all-zero when the
// layer is compiled out.
struct metrics_snapshot {
  std::array<std::uint64_t, kNumCounters> totals{};
  std::array<hist_snapshot, kNumHists> hists{};
  std::uint64_t operator[](counter c) const noexcept {
    return totals[static_cast<std::size_t>(c)];
  }
  const hist_snapshot& operator[](hist h) const noexcept {
    return hists[static_cast<std::size_t>(h)];
  }
};

inline metrics_snapshot operator-(const metrics_snapshot& a, const metrics_snapshot& b) {
  metrics_snapshot d;
  for (std::size_t i = 0; i < kNumCounters; ++i) d.totals[i] = a.totals[i] - b.totals[i];
  for (std::size_t i = 0; i < kNumHists; ++i) d.hists[i] = a.hists[i] - b.hists[i];
  return d;
}

#if PHCH_TELEMETRY_ENABLED

inline constexpr std::size_t kHistStripes = 8;  // power of two
static_assert((kHistStripes & (kHistStripes - 1)) == 0);

// Every thread samples one scalar op in this many for op_latency_ns.
inline constexpr int kLatencySamplePeriod = 256;

namespace detail {

// Wall clock for durations (shared with the tracer; trace.h reuses this).
inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct alignas(64) hist_stripe {
  std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};
};

}  // namespace detail

class striped_histogram;

// Block-local accumulator for the pipelined engines, mirroring their plain
// local tallies (t_slots, t_hits, ...): note() is pure register/stack work,
// and the striped histogram is touched once per block, not once per op.
// Without this, three relaxed RMWs per op on the shared stripes would
// dominate a cache-resident find loop.
class hist_accum {
 public:
  void note(std::uint64_t v) noexcept {
    ++counts_[hist_bucket(v)];
    sum_ += v;
    if (v > max_) max_ = v;
    ++n_;
  }
  bool empty() const noexcept { return n_ == 0; }

 private:
  friend class striped_histogram;
  std::array<std::uint64_t, kHistBuckets> counts_{};
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t n_ = 0;
};

// Striped log-linear histogram: the record hot path touches only the
// caller's own stripe with relaxed atomics.
class striped_histogram {
 public:
  striped_histogram() = default;
  striped_histogram(const striped_histogram&) = delete;
  striped_histogram& operator=(const striped_histogram&) = delete;

  void record(std::uint64_t v) noexcept {
    detail::hist_stripe& s =
        stripes_[detail::stripe_index() & (kHistStripes - 1)];
    s.buckets[hist_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    raise_max(s, v);
  }

  // Merge a block-local accumulator: one fetch_add per *touched* bucket
  // instead of three atomics per sample.
  void record(const hist_accum& a) noexcept {
    if (a.n_ == 0) return;
    detail::hist_stripe& s =
        stripes_[detail::stripe_index() & (kHistStripes - 1)];
    for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
      if (a.counts_[i] != 0)
        s.buckets[i].fetch_add(a.counts_[i], std::memory_order_relaxed);
    }
    s.sum.fetch_add(a.sum_, std::memory_order_relaxed);
    raise_max(s, a.max_);
  }

  hist_snapshot snapshot() const noexcept {
    hist_snapshot out;
    for (const auto& s : stripes_) {
      for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
        const std::uint64_t c = s.buckets[i].load(std::memory_order_relaxed);
        out.buckets[i] += c;
        out.count += c;
      }
      out.sum += s.sum.load(std::memory_order_relaxed);
      const std::uint64_t m = s.max.load(std::memory_order_relaxed);
      if (m > out.max) out.max = m;
    }
    return out;
  }

  void reset() noexcept {
    for (auto& s : stripes_) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      s.max.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static void raise_max(detail::hist_stripe& s, std::uint64_t v) noexcept {
    std::uint64_t m = s.max.load(std::memory_order_relaxed);
    while (v > m &&
           !s.max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  std::array<detail::hist_stripe, kHistStripes> stripes_{};
};

namespace detail {

inline std::array<striped_histogram, kNumHists> g_hists;

inline thread_local int tl_latency_countdown = 1;

}  // namespace detail

inline void hist_record(hist kind, std::uint64_t v) noexcept {
  detail::g_hists[static_cast<std::size_t>(kind)].record(v);
}

inline void hist_record(hist kind, const hist_accum& a) noexcept {
  detail::g_hists[static_cast<std::size_t>(kind)].record(a);
}

// The one observability snapshot: every counter and every histogram.
inline metrics_snapshot snapshot() noexcept {
  metrics_snapshot m;
  for (std::size_t i = 0; i < kNumCounters; ++i)
    m.totals[i] = total(static_cast<counter>(i));
  for (std::size_t i = 0; i < kNumHists; ++i) m.hists[i] = detail::g_hists[i].snapshot();
  return m;
}

// Clears every histogram. Called from obs::reset(); quiescent-point use only.
inline void reset_histograms() noexcept {
  for (auto& h : detail::g_hists) h.reset();
}

// RAII duration recorder: reads the clock on construction and records the
// elapsed nanoseconds into `kind` on destruction.
class hist_timer {
 public:
  explicit hist_timer(hist kind) noexcept
      : kind_(kind), t0_(detail::steady_now_ns()) {}
  hist_timer(const hist_timer&) = delete;
  hist_timer& operator=(const hist_timer&) = delete;
  ~hist_timer() { hist_record(kind_, detail::steady_now_ns() - t0_); }

 private:
  hist kind_;
  std::uint64_t t0_;
};

// RAII probe-depth recorder. Declared *after* the op's probe_tally so it
// destructs first on every exit path and reads the tally's final slot
// count; `base` carries the pipelined prefix distance already
// travelled before the scalar continuation took over.
class probe_depth_scope {
 public:
  explicit probe_depth_scope(const probe_tally& t, std::uint64_t base = 0) noexcept
      : t_(&t), base_(base) {}
  probe_depth_scope(const probe_depth_scope&) = delete;
  probe_depth_scope& operator=(const probe_depth_scope&) = delete;
  ~probe_depth_scope() { hist_record(hist::probe_depth, base_ + t_->slots); }

 private:
  const probe_tally* t_;
  std::uint64_t base_;
};

// RAII 1-in-N op-latency sampler: arms (and reads the clock) only when the
// thread-local countdown expires, so the common path is one decrement.
class latency_sampler {
 public:
  latency_sampler() noexcept {
    if (--detail::tl_latency_countdown > 0) return;
    detail::tl_latency_countdown = kLatencySamplePeriod;
    armed_ = true;
    t0_ = detail::steady_now_ns();
  }
  latency_sampler(const latency_sampler&) = delete;
  latency_sampler& operator=(const latency_sampler&) = delete;
  ~latency_sampler() {
    if (armed_) hist_record(hist::op_latency_ns, detail::steady_now_ns() - t0_);
  }

 private:
  bool armed_ = false;
  std::uint64_t t0_ = 0;
};

#else  // !PHCH_TELEMETRY_ENABLED — empty inline no-ops

class hist_accum {
 public:
  void note(std::uint64_t) noexcept {}
  bool empty() const noexcept { return true; }
};

inline void hist_record(hist, std::uint64_t) noexcept {}
inline void hist_record(hist, const hist_accum&) noexcept {}
inline metrics_snapshot snapshot() noexcept { return {}; }
inline void reset_histograms() noexcept {}

class hist_timer {
 public:
  explicit hist_timer(hist) noexcept {}
  hist_timer(const hist_timer&) = delete;
  hist_timer& operator=(const hist_timer&) = delete;
};

class probe_depth_scope {
 public:
  explicit probe_depth_scope(const probe_tally&, std::uint64_t = 0) noexcept {}
  probe_depth_scope(const probe_depth_scope&) = delete;
  probe_depth_scope& operator=(const probe_depth_scope&) = delete;
};

class latency_sampler {
 public:
  latency_sampler() noexcept {}
  latency_sampler(const latency_sampler&) = delete;
  latency_sampler& operator=(const latency_sampler&) = delete;
};

#endif  // PHCH_TELEMETRY_ENABLED

}  // namespace phch::obs
