// Telemetry exporters: the snapshot JSON writer, the metrics file, and
// chrome://tracing files.
//
//  * write_snapshot_json(f, s, indent) — the one JSON writer for the one
//    snapshot type (obs::metrics_snapshot): its "counters" and
//    "histograms" members, spliced into the caller's object. The metrics
//    file, the chrome trace's mark events, and the benches that embed
//    telemetry all write snapshots through it.
//  * write_metrics_json(path)  — the current snapshot plus every mark (its
//    snapshot and the delta since the previous mark: the per-phase sums),
//    as a single JSON object. The programmatic equivalents are
//    obs::snapshot() / obs::marks() / obs::drain_trace().
//  * write_chrome_trace(path)  — the drained event rings in the Trace Event
//    Format consumed by chrome://tracing and https://ui.perfetto.dev:
//    phase transitions as instant events carrying the table id and its new
//    phase epoch, spans as complete ("X") events (a growth's "grow" span
//    carries its target capacity), marks as instant events carrying their
//    per-phase snapshot delta; tid = telemetry stripe (worker id).
//
// The two file writers return false (and write nothing) when telemetry is
// compiled out.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "phch/obs/histogram.h"
#include "phch/obs/telemetry.h"
#include "phch/obs/trace.h"

namespace phch::obs {

namespace detail {

// One histogram as {"count", "sum", "max", "mean", "p50", "p90", "p99",
// "buckets": [[lower_bound, count], ...]} (occupied buckets only).
inline void write_hist_json(std::FILE* f, const hist_snapshot& h,
                            const char* indent) {
  std::fprintf(f,
               "{\"count\": %" PRIu64 ", \"sum\": %" PRIu64 ", \"max\": %" PRIu64
               ",\n%s \"mean\": %.3f, \"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f,"
               "\n%s \"buckets\": [",
               h.count, h.sum, h.max, indent, h.mean(), h.quantile(0.50),
               h.quantile(0.90), h.quantile(0.99), indent);
  bool first = true;
  for (std::uint32_t i = 0; i < kHistBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    std::fprintf(f, "%s[%" PRIu64 ", %" PRIu64 "]", first ? "" : ", ",
                 hist_bucket_lower(i), h.buckets[i]);
    first = false;
  }
  std::fprintf(f, "]}");
}

}  // namespace detail

// Emits `"counters": {"name": value, ...}, "histograms": {"probe_depth":
// {...}}` for `s` — the members only, so callers splice them into their own
// object. Available in both build modes (a compiled-out snapshot is all
// zeros).
inline void write_snapshot_json(std::FILE* f, const metrics_snapshot& s,
                                const char* indent) {
  std::fprintf(f, "\"counters\": {");
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    std::fprintf(f, "%s\n%s  \"%s\": %" PRIu64, i == 0 ? "" : ",", indent,
                 counter_name(static_cast<counter>(i)), s.totals[i]);
  }
  const std::string inner = std::string(indent) + "  ";
  std::fprintf(f, "\n%s},\n%s\"histograms\": {\n%s\"probe_depth\": ", indent, indent,
               inner.c_str());
  detail::write_hist_json(f, s.probe_depth, inner.c_str());
  std::fprintf(f, "\n%s}", indent);
}

#if PHCH_TELEMETRY_ENABLED

namespace detail {
// String escaping for the labels we emit (static names and mark labels
// under caller control). Escapes quotes, backslashes, and — required for
// valid JSON — control characters, with short forms for the common ones.
inline void write_escaped(std::FILE* f, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': std::fputs("\\\"", f); break;
      case '\\': std::fputs("\\\\", f); break;
      case '\n': std::fputs("\\n", f); break;
      case '\t': std::fputs("\\t", f); break;
      case '\r': std::fputs("\\r", f); break;
      default:
        if (c < 0x20) {
          std::fprintf(f, "\\u%04x", c);
        } else {
          std::fputc(*s, f);
        }
        break;
    }
  }
}

// Mark i's per-phase sums: its snapshot minus the previous mark's.
inline metrics_snapshot mark_delta(const std::vector<mark_entry>& ms, std::size_t i) {
  return i == 0 ? ms[0].metrics : ms[i].metrics - ms[i - 1].metrics;
}
}  // namespace detail

inline bool write_metrics_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"telemetry\": true,\n  \"stripes\": %zu,\n  ", kStripes);
  write_snapshot_json(f, snapshot(), "  ");
  const auto ms = marks();
  std::fprintf(f, ",\n  \"marks\": [");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::fprintf(f, "%s\n    {\"label\": \"", i == 0 ? "" : ",");
    detail::write_escaped(f, ms[i].label.c_str());
    std::fprintf(f, "\", \"ts_ns\": %" PRIu64 ",\n     ", ms[i].ts_ns);
    write_snapshot_json(f, ms[i].metrics, "     ");
    std::fprintf(f, ",\n     \"delta\": {");
    write_snapshot_json(f, detail::mark_delta(ms, i), "      ");
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

inline bool write_chrome_trace(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const drained_trace tr = drain_trace();
  const auto ms = marks();
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\",\n \"droppedEvents\": %" PRIu64
                  ",\n \"traceEvents\": [\n",
               tr.dropped);
  bool first = true;
  for (const trace_event& e : tr.events) {
    const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    std::fprintf(f, "%s  {\"name\": \"", first ? "" : ",\n");
    first = false;
    detail::write_escaped(f, e.name);
    std::fprintf(f, "\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f", e.worker, ts_us);
    switch (e.kind) {
      case event_kind::span:
        std::fprintf(f, ", \"ph\": \"X\", \"dur\": %.3f",
                     static_cast<double>(e.dur_ns) / 1000.0);
        std::fprintf(f, ", \"args\": {\"a\": %u, \"b\": %" PRIu64 "}", e.a, e.b);
        break;
      case event_kind::phase_begin:
        std::fprintf(f, ", \"ph\": \"i\", \"s\": \"p\"");
        std::fprintf(f,
                     ", \"args\": {\"op_class\": %u, \"table\": %" PRIu64
                     ", \"epoch\": %" PRIu64 "}",
                     e.a, e.b, e.dur_ns);
        break;
      case event_kind::mark:
        std::fprintf(f, ", \"ph\": \"i\", \"s\": \"g\"");
        std::fprintf(f, ", \"args\": {\"mark\": %" PRIu64, e.b);
        if (e.b < ms.size()) {
          std::fprintf(f, ",\n   ");
          write_snapshot_json(f, detail::mark_delta(ms, e.b), "   ");
        }
        std::fprintf(f, "}");
        break;
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

#else  // !PHCH_TELEMETRY_ENABLED

inline bool write_metrics_json(const char*) { return false; }
inline bool write_chrome_trace(const char*) { return false; }

#endif  // PHCH_TELEMETRY_ENABLED

}  // namespace phch::obs
