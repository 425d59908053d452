// Prometheus text-exposition writer over the obs layer.
//
// render_prometheus() serializes one obs::snapshot() and the registry's
// gauges into one std::string:
//  * every counter as `phch_<name>_total`,
//  * every histogram (probe depth, op latency, room wait, growth; all
//    process-wide) in the native histogram exposition (`_bucket{le=...}`
//    cumulative counts, `_sum`, `_count`),
//  * per-table gauges from the registry (capacity, phase epoch) labelled
//    {table="<name>"}.
//
// Bucket `le` bounds are the inclusive hist_bucket_upper() values, so the
// cumulative counts are exact (values are integers; "le" is <=). Empty
// buckets between occupied ones are skipped — cumulative counts make that
// lossless — and +Inf always closes the series. Output follows the
// text/plain; version=0.0.4 exposition format; label values escape
// backslash, double-quote, and newline per the spec.
//
// Reads are stripe sums: exact at a quiescent point, approximate
// mid-phase. tools/phch_monitor.cpp therefore rebuilds its served page at
// workload phase boundaries, so every scrape observes a consistent ledger
// (probe-depth count == find_ops + insert_ops + erase_ops).
//
// Compiled out, render_prometheus() returns a single comment line so a
// monitor binary built without telemetry still serves well-formed output.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "phch/obs/histogram.h"
#include "phch/obs/registry.h"
#include "phch/obs/telemetry.h"

namespace phch::obs {

#if PHCH_TELEMETRY_ENABLED

namespace detail {

inline void prom_append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

inline void prom_append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

// Escapes a label value per the exposition format: \\ , \" , \n.
inline void prom_append_label_value(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}

// Emits one unlabelled histogram with its TYPE line.
inline void prom_append_histogram(std::string& out, const std::string& metric,
                                  const hist_snapshot& h) {
  out += "# TYPE " + metric + " histogram\n";
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    cum += h.buckets[i];
    out += metric + "_bucket{le=\"";
    prom_append_u64(out, hist_bucket_upper(i));
    out += "\"} ";
    prom_append_u64(out, cum);
    out += '\n';
  }
  out += metric + "_bucket{le=\"+Inf\"} ";
  prom_append_u64(out, h.count);
  out += '\n' + metric + "_sum ";
  prom_append_u64(out, h.sum);
  out += '\n' + metric + "_count ";
  prom_append_u64(out, h.count);
  out += '\n';
}

inline void prom_append_gauge(std::string& out, const char* metric,
                              const std::string& labels, double v) {
  out += metric;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  prom_append_double(out, v);
  out += '\n';
}

}  // namespace detail

inline std::string render_prometheus() {
  std::string out;
  out.reserve(16384);
  const metrics_snapshot m = snapshot();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const char* name = counter_name(static_cast<counter>(i));
    out += "# TYPE phch_";
    out += name;
    out += "_total counter\nphch_";
    out += name;
    out += "_total ";
    detail::prom_append_u64(out, m.totals[i]);
    out += '\n';
  }

  // Process-wide distributions; probe_depth is the side the ledger check
  // (probe_depth count == find+insert+erase ops) holds on.
  for (std::size_t i = 0; i < kNumHists; ++i) {
    detail::prom_append_histogram(
        out, std::string("phch_") + hist_name(static_cast<hist>(i)), m.hists[i]);
  }

  // Per-table gauges from the registry.
  const auto tables = snapshot_tables();
  if (!tables.empty()) {
    out += "# TYPE phch_table_capacity gauge\n";
    out += "# TYPE phch_table_phase_epoch gauge\n";
  }
  for (const table_sample& t : tables) {
    std::string labels = "table=\"";
    detail::prom_append_label_value(labels, t.name);
    labels += '"';
    if (t.capacity != 0) {
      detail::prom_append_gauge(out, "phch_table_capacity", labels,
                                static_cast<double>(t.capacity));
    }
    if (t.has_epoch) {
      detail::prom_append_gauge(out, "phch_table_phase_epoch", labels,
                                static_cast<double>(t.phase_epoch));
    }
  }
  return out;
}

#else  // !PHCH_TELEMETRY_ENABLED

inline std::string render_prometheus() {
  return "# phch telemetry compiled out (build with -DPHCH_TELEMETRY=ON)\n";
}

#endif  // PHCH_TELEMETRY_ENABLED

}  // namespace phch::obs
