// Zero-overhead-when-off distribution telemetry: striped log-linear
// histograms.
//
// The counters (obs/telemetry.h) say how many events happened; this layer
// says how they are *distributed* — probe depth per operation, sampled
// operation latency, room-wait durations, and growth migration times.
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
// Storage. A striped_histogram keeps kHistStripes = 8 cache-line-aligned
// stripes of relaxed atomic buckets; record() is two relaxed fetch_adds
// and a relaxed max-CAS on the caller's stripe. The pipelined engines do
// not even pay that: they note() samples into a block-local hist_accum
// (plain stack memory, like their other tallies) and record_block() the
// whole thing once per block. Like the counters, sums over stripes are
// exact at a quiescent point and approximate mid-phase.
//
// Per-table vs global. table_hists is the per-table block (probe depth +
// sampled op latency) embedded in the instrumented tables behind
// [[no_unique_address]]; every live block self-registers so
// table_hist_totals() can merge all of them, and a dying block folds its
// final counts into a process-wide graveyard first — global totals stay
// exact across table destruction, which is what makes the probe-depth
// ledger (sum of samples == find_ops + insert_ops + erase_ops) checkable
// after a workload's tables are gone. The global_hist histograms
// (room_wait_ns, growth_ns) are plain process-wide singletons.
//
// Latency sampling. Timestamps are too expensive per op, so op latency is
// sampled 1-in-N per thread (N from PHCH_LATENCY_SAMPLE, default 256): a
// thread-local countdown arms a latency_sampler only when it hits zero, so
// the un-sampled hot path never reads the clock.
//
// Everything below compiles to empty inline no-ops when PHCH_TELEMETRY is
// off, exactly like the counters; instrumented classes embed table_hists
// behind [[no_unique_address]] so their compiled-out size is unchanged.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <vector>

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

  void merge(const hist_snapshot& o) noexcept {
    for (std::uint32_t i = 0; i < kHistBuckets; ++i) buckets[i] += o.buckets[i];
    count += o.count;
    sum += o.sum;
    if (o.max > max) max = o.max;
  }

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

// Per-table histogram kinds (one table_hists block per instrumented table).
enum class table_hist : std::uint8_t {
  probe_depth,     // slots inspected per op (scalar + pipelined paths)
  op_latency_ns,   // sampled wall time per scalar op (1-in-N)
  kCount
};
inline constexpr std::size_t kNumTableHists =
    static_cast<std::size_t>(table_hist::kCount);

inline const char* table_hist_name(table_hist h) noexcept {
  static constexpr const char* names[kNumTableHists] = {"probe_depth",
                                                        "op_latency_ns"};
  const auto i = static_cast<std::size_t>(h);
  return i < kNumTableHists ? names[i] : "?";
}

// Process-global histogram kinds (no per-table attribution).
enum class global_hist : std::uint8_t {
  room_wait_ns,   // wall time blocked in room_sync::enter
  growth_ns,      // growable_table migration duration
  kCount
};
inline constexpr std::size_t kNumGlobalHists =
    static_cast<std::size_t>(global_hist::kCount);

inline const char* global_hist_name(global_hist h) noexcept {
  static constexpr const char* names[kNumGlobalHists] = {
      "room_wait_ns", "growth_ns"};
  const auto i = static_cast<std::size_t>(h);
  return i < kNumGlobalHists ? names[i] : "?";
}

#if PHCH_TELEMETRY_ENABLED

inline constexpr std::size_t kHistStripes = 8;  // power of two
static_assert((kHistStripes & (kHistStripes - 1)) == 0);

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
// and the striped histogram is touched once per block at flush, not once
// per op. Without this, three relaxed RMWs per op on the shared stripes
// dominate a cache-resident find loop and blow the <5% telemetry-ON budget.
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
    if (!enabled()) return;
    detail::hist_stripe& s =
        stripes_[detail::stripe_index() & (kHistStripes - 1)];
    s.buckets[hist_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = s.max.load(std::memory_order_relaxed);
    while (v > m &&
           !s.max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  // Merge a block-local accumulator: one fetch_add per *touched* bucket
  // instead of three atomics per sample.
  void record_block(const hist_accum& a) noexcept {
    if (!enabled() || a.n_ == 0) return;
    detail::hist_stripe& s =
        stripes_[detail::stripe_index() & (kHistStripes - 1)];
    for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
      if (a.counts_[i] != 0)
        s.buckets[i].fetch_add(a.counts_[i], std::memory_order_relaxed);
    }
    s.sum.fetch_add(a.sum_, std::memory_order_relaxed);
    std::uint64_t m = s.max.load(std::memory_order_relaxed);
    while (a.max_ > m &&
           !s.max.compare_exchange_weak(m, a.max_, std::memory_order_relaxed)) {
    }
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
  std::array<detail::hist_stripe, kHistStripes> stripes_{};
};

class table_hists;

namespace detail {

// Live-block list + graveyard. One mutex guards both (a dying block merges
// into the graveyard while still on the list, then unlinks — no window in
// which its samples are counted twice or not at all).
struct table_hist_globals {
  std::mutex m;
  std::vector<table_hists*> live;
  std::array<hist_snapshot, kNumTableHists> graveyard{};
};

inline table_hist_globals& hist_globals() noexcept {
  static table_hist_globals g;
  return g;
}

inline int latency_period() noexcept {
  static const int period = [] {
    const char* v = std::getenv("PHCH_LATENCY_SAMPLE");
    if (v == nullptr || *v == '\0') return 256;
    const long n = std::strtol(v, nullptr, 10);
    return n > 0 ? static_cast<int>(n) : 256;
  }();
  return period;
}

inline thread_local int tl_latency_countdown = 1;

}  // namespace detail

// The per-table histogram block. Instrumented tables embed one (mutable,
// [[no_unique_address]] so the compiled-out empty twin adds no size) and
// route their probe loops' depths and sampled latencies into it.
class table_hists {
 public:
  table_hists() {
    auto& g = detail::hist_globals();
    std::lock_guard<std::mutex> lock(g.m);
    g.live.push_back(this);
  }
  table_hists(const table_hists&) = delete;
  table_hists& operator=(const table_hists&) = delete;
  ~table_hists() {
    auto& g = detail::hist_globals();
    std::lock_guard<std::mutex> lock(g.m);
    for (std::size_t i = 0; i < kNumTableHists; ++i)
      g.graveyard[i].merge(h_[i].snapshot());
    for (auto it = g.live.begin(); it != g.live.end(); ++it) {
      if (*it == this) {
        g.live.erase(it);
        break;
      }
    }
  }

  void record(table_hist kind, std::uint64_t v) noexcept {
    h_[static_cast<std::size_t>(kind)].record(v);
  }

  void record_block(table_hist kind, const hist_accum& a) noexcept {
    h_[static_cast<std::size_t>(kind)].record_block(a);
  }

  hist_snapshot snapshot(table_hist kind) const noexcept {
    return h_[static_cast<std::size_t>(kind)].snapshot();
  }

  void reset() noexcept {
    for (auto& h : h_) h.reset();
  }

 private:
  std::array<striped_histogram, kNumTableHists> h_;
};

// Sum of one per-table histogram over every live table plus the graveyard:
// globally exact at a quiescent point, surviving table destruction.
inline hist_snapshot table_hist_totals(table_hist kind) {
  auto& g = detail::hist_globals();
  std::lock_guard<std::mutex> lock(g.m);
  hist_snapshot out = g.graveyard[static_cast<std::size_t>(kind)];
  for (const table_hists* t : g.live) out.merge(t->snapshot(kind));
  return out;
}

namespace detail {

inline std::array<striped_histogram, kNumGlobalHists> g_global_hists;

}  // namespace detail

inline void hist_record(global_hist kind, std::uint64_t v) noexcept {
  detail::g_global_hists[static_cast<std::size_t>(kind)].record(v);
}

inline hist_snapshot hist_totals(global_hist kind) noexcept {
  return detail::g_global_hists[static_cast<std::size_t>(kind)].snapshot();
}

// Timestamp helper for duration histograms: returns 0 when recording is
// disabled so the paired hist_record_since is a no-op and the disabled
// path never reads the clock.
inline std::uint64_t now_if_enabled() noexcept {
  return enabled() ? detail::steady_now_ns() : 0;
}

inline void hist_record_since(global_hist kind, std::uint64_t t0) noexcept {
  if (t0 == 0) return;
  hist_record(kind, detail::steady_now_ns() - t0);
}

// Clears the global histograms, every live per-table block, and the
// graveyard. Called from obs::reset(); quiescent-point use only.
inline void reset_histograms() {
  auto& g = detail::hist_globals();
  std::lock_guard<std::mutex> lock(g.m);
  for (auto& s : g.graveyard) s = hist_snapshot{};
  for (table_hists* t : g.live) t->reset();
  for (auto& h : detail::g_global_hists) h.reset();
}

// RAII probe-depth recorder. Declared *after* the op's probe_tally so it
// destructs first on every exit path and reads the tally's final slot
// count; `base` carries the pipelined prefix distance already
// travelled before the scalar continuation took over.
class probe_depth_scope {
 public:
  probe_depth_scope(table_hists* h, const probe_tally& t,
                    std::uint64_t base = 0) noexcept
      : h_(h), t_(&t), base_(base) {}
  probe_depth_scope(const probe_depth_scope&) = delete;
  probe_depth_scope& operator=(const probe_depth_scope&) = delete;
  ~probe_depth_scope() {
    if (h_ != nullptr) h_->record(table_hist::probe_depth, base_ + t_->slots);
  }

 private:
  table_hists* h_;
  const probe_tally* t_;
  std::uint64_t base_;
};

// RAII 1-in-N op-latency sampler: arms (and reads the clock) only when the
// thread-local countdown expires, so the common path is one decrement.
class latency_sampler {
 public:
  explicit latency_sampler(table_hists& h) noexcept {
    if (!enabled()) return;
    if (--detail::tl_latency_countdown > 0) return;
    detail::tl_latency_countdown = detail::latency_period();
    h_ = &h;
    t0_ = detail::steady_now_ns();
  }
  latency_sampler(const latency_sampler&) = delete;
  latency_sampler& operator=(const latency_sampler&) = delete;
  ~latency_sampler() {
    if (h_ != nullptr)
      h_->record(table_hist::op_latency_ns, detail::steady_now_ns() - t0_);
  }

 private:
  table_hists* h_ = nullptr;
  std::uint64_t t0_ = 0;
};

#else  // !PHCH_TELEMETRY_ENABLED — empty inline no-ops, zero-size members

class hist_accum {
 public:
  void note(std::uint64_t) noexcept {}
  bool empty() const noexcept { return true; }
};

class striped_histogram {
 public:
  striped_histogram() = default;
  striped_histogram(const striped_histogram&) = delete;
  striped_histogram& operator=(const striped_histogram&) = delete;
  void record(std::uint64_t) noexcept {}
  void record_block(const hist_accum&) noexcept {}
  hist_snapshot snapshot() const noexcept { return {}; }
  void reset() noexcept {}
};

class table_hists {
 public:
  table_hists() = default;
  table_hists(const table_hists&) = delete;
  table_hists& operator=(const table_hists&) = delete;
  void record(table_hist, std::uint64_t) noexcept {}
  void record_block(table_hist, const hist_accum&) noexcept {}
  hist_snapshot snapshot(table_hist) const noexcept { return {}; }
  void reset() noexcept {}
};

inline hist_snapshot table_hist_totals(table_hist) { return {}; }
inline void hist_record(global_hist, std::uint64_t) noexcept {}
inline hist_snapshot hist_totals(global_hist) noexcept { return {}; }
inline constexpr std::uint64_t now_if_enabled() noexcept { return 0; }
inline void hist_record_since(global_hist, std::uint64_t) noexcept {}
inline void reset_histograms() {}

class probe_depth_scope {
 public:
  probe_depth_scope(table_hists*, const probe_tally&,
                    std::uint64_t = 0) noexcept {}
  probe_depth_scope(const probe_depth_scope&) = delete;
  probe_depth_scope& operator=(const probe_depth_scope&) = delete;
};

class latency_sampler {
 public:
  explicit latency_sampler(table_hists&) noexcept {}
  latency_sampler(const latency_sampler&) = delete;
  latency_sampler& operator=(const latency_sampler&) = delete;
};

#endif  // PHCH_TELEMETRY_ENABLED

}  // namespace phch::obs
