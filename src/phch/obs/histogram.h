// Distribution telemetry: the log-linear bucket math, the histogram reading
// (hist_snapshot), and the block-local accumulator (hist_accum).
//
// The counters (obs/telemetry.h) say how many events happened; the one
// histogram says how they are *distributed*: probe depth per
// linear-probing operation. That distribution is what the paper's
// phase-concurrency argument claims things about (expected O(1) probes at
// fixed load). Its buckets, sum and max live in the same per-thread stripe
// as the counters (obs/telemetry.h), so a scalar operation's obs::op_tally
// flushes its counters and its depth sample to one stripe at once. This
// header holds only the mode switch and the storage-free parts, so it
// depends on nothing.
//
// Encoding. HDR-style log-linear buckets: values 0..3 get their own bucket,
// and every octave above that is split into 2^kHistSubBits = 4 sub-buckets,
// giving <= 25% relative bucket width over the full 64-bit range in
// kHistBuckets = 252 buckets. hist_bucket / hist_bucket_lower /
// hist_bucket_upper are pure constexpr functions available in both build
// modes (the unit tests exercise them compiled-out too).
//
// Block accumulation. The linear tables' pipelined find_block note()s each
// sample into a block-local hist_accum (plain stack memory, like their other tallies) and
// flush the whole block once (obs::record_probe_depth), one add per
// touched bucket instead of three atomics per op. Compiled out, hist_accum
// is an empty class.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

// The one telemetry switch: the CMake option PHCH_TELEMETRY defines
// PHCH_TELEMETRY=1, and every obs header selects its real or its no-op
// half on this macro.
#if defined(PHCH_TELEMETRY) && PHCH_TELEMETRY
#define PHCH_TELEMETRY_ENABLED 1
#else
#define PHCH_TELEMETRY_ENABLED 0
#endif

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

#if PHCH_TELEMETRY_ENABLED

// Block-local accumulator for the pipelined finds, mirroring their plain
// local tallies (t_slots, t_hits, ...): note() is pure register/stack work,
// and the stripe is touched once per block, not once per op.
struct hist_accum {
  std::array<std::uint64_t, kHistBuckets> counts{};
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t n = 0;

  void note(std::uint64_t v) noexcept {
    ++counts[hist_bucket(v)];
    sum += v;
    if (v > max) max = v;
    ++n;
  }
  bool empty() const noexcept { return n == 0; }
};

#else  // !PHCH_TELEMETRY_ENABLED

struct hist_accum {
  void note(std::uint64_t) noexcept {}
  bool empty() const noexcept { return true; }
};

#endif  // PHCH_TELEMETRY_ENABLED

}  // namespace phch::obs
