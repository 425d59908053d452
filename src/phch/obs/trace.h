// Phase-epoch and span tracing: timestamped events in per-worker rings.
//
// Records the *rare* structural events of a run — per-table phase
// transitions (insert/erase/query epochs, fed exactly once per boundary by
// the phase_runtime transition edge, core/phase_runtime.h),
// root fork-join spans (one per top-level parallel_for), growth
// migrations, and user marks — as fixed-size events in per-stripe ring
// buffers. Hot-path table operations never record events; they only bump
// counters (obs/telemetry.h). The exporters (obs/export.h) drain the rings
// into a chrome://tracing-compatible file and a JSON metrics snapshot.
//
// Concurrency: each stripe's ring has an atomic head; a recording thread
// claims a slot with a relaxed fetch_add and fills it with relaxed atomic
// stores, so the rings are data-race-free (TSan-clean) without locks. Two
// threads sharing a stripe can collide on one slot only after a full ring
// wrap; the slot then holds a mix of two events — harmless for diagnostics,
// and impossible for scheduler workers (one thread per stripe). Rings keep
// the newest kRingCapacity events per stripe; the drop count of older
// events is reported by drained_trace::dropped.
//
// Marks are labelled quiescent-point snapshots (obs::snapshot(): every
// counter and the probe-depth histogram), taken by the applications at phase boundaries
// (e.g. remove_duplicates marks the end of its insert phase); consecutive
// mark deltas give exact per-phase sums in the metrics JSON and the chrome
// trace. Marks are mutex-guarded — they are rare by contract.
//
// Like everything in obs/, all of this compiles to empty inline no-ops when
// PHCH_TELEMETRY is off.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "phch/obs/telemetry.h"

namespace phch::obs {

enum class event_kind : std::uint32_t {
  phase_begin = 0,  // a = op class (0 insert, 1 erase, 2 query), b = table id,
                    // dur_ns = the table's new phase epoch (phase_runtime)
  span = 1,         // dur_ns spans the region; a, b are name-specific payload
  mark = 2,         // b = index into marks()
};

// A drained (plain, non-atomic) trace event.
struct trace_event {
  std::uint64_t ts_ns = 0;   // steady_clock, relative to trace_epoch_ns()
  std::uint64_t dur_ns = 0;  // span duration; phase_begin: the new epoch
  std::uint64_t b = 0;
  const char* name = nullptr;  // static string; never null after drain
  event_kind kind = event_kind::span;
  std::uint32_t a = 0;
  int worker = 0;  // stripe that recorded the event
};

struct drained_trace {
  std::vector<trace_event> events;  // sorted by ts_ns
  std::uint64_t dropped = 0;        // events overwritten by ring wrap
};

// A labelled quiescent-point snapshot (see header comment).
struct mark_entry {
  std::string label;
  std::uint64_t ts_ns = 0;
  metrics_snapshot metrics;
};

#if PHCH_TELEMETRY_ENABLED

inline constexpr std::size_t kRingCapacity = 1024;  // events kept per stripe

namespace detail {

// Wall clock for event timestamps and span durations.
inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process-wide trace epoch: all event timestamps are relative to the first
// time anything asked for the clock, keeping chrome-trace numbers small.
inline std::uint64_t trace_epoch() noexcept {
  static const std::uint64_t t0 = steady_now_ns();
  return t0;
}

struct event_slot {
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint32_t> kind{0};
  std::atomic<std::uint32_t> a{0};
};

struct alignas(64) event_ring {
  std::atomic<std::uint64_t> head{0};
  std::array<event_slot, kRingCapacity> slots;
};

inline std::array<event_ring, kStripes> g_rings;

inline std::mutex g_marks_m;
inline std::vector<mark_entry> g_marks;

inline std::atomic<std::uint32_t> g_table_ids{0};

}  // namespace detail

inline std::uint64_t now_ns() noexcept {
  return detail::steady_now_ns() - detail::trace_epoch();
}

// Records one event into the calling thread's ring. `name` must point to
// storage that outlives the drain (string literals in practice).
inline void record_event(event_kind k, const char* name, std::uint32_t a,
                         std::uint64_t b, std::uint64_t ts_ns,
                         std::uint64_t dur_ns = 0) noexcept {
  detail::event_ring& r = detail::g_rings[detail::stripe_index()];
  const std::uint64_t i = r.head.fetch_add(1, std::memory_order_relaxed);
  detail::event_slot& s = r.slots[i & (kRingCapacity - 1)];
  s.ts_ns.store(ts_ns, std::memory_order_relaxed);
  s.dur_ns.store(dur_ns, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.name.store(name, std::memory_order_relaxed);
  s.kind.store(static_cast<std::uint32_t>(k), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
}

// RAII span: captures the clock on construction and records one `span`
// event on destruction. a/b payload can be set before the scope closes.
class span {
 public:
  explicit span(const char* name) noexcept : name_(name), t0_(now_ns()) {}
  span(const span&) = delete;
  span& operator=(const span&) = delete;
  ~span() { record_event(event_kind::span, name_, a, b, t0_, now_ns() - t0_); }
  std::uint32_t a = 0;
  std::uint64_t b = 0;

 private:
  const char* name_;
  std::uint64_t t0_;
};

// --- phase-transition seam (fed by core/phase_runtime.h) --------------------
//
// The tracer no longer keeps its own per-table "last class" atomic: the
// phase state machine in core/phase_runtime.h is the single source of
// truth, and the thread that wins its transition CAS calls
// note_phase_transition exactly once per actual class boundary. The new
// phase epoch rides in the event's dur field (unused by non-span events),
// so a drained trace is a checkable ledger: per table, epochs are distinct
// and dense up to the table's current epoch.

inline std::uint32_t next_table_id() noexcept {
  return detail::g_table_ids.fetch_add(1, std::memory_order_relaxed);
}

inline void note_phase_transition(std::uint32_t table_id, std::uint8_t op_class,
                                  std::uint64_t epoch) noexcept {
  static constexpr const char* names[3] = {"phase:insert", "phase:erase",
                                           "phase:query"};
  record_event(event_kind::phase_begin,
               op_class < 3 ? names[op_class] : "phase:?", op_class, table_id,
               now_ns(), epoch);
}

// --- marks ------------------------------------------------------------------

inline void mark(const char* label) {
  mark_entry m;
  m.label = label;
  m.ts_ns = now_ns();
  m.metrics = snapshot();
  std::uint64_t idx;
  {
    std::lock_guard<std::mutex> lock(detail::g_marks_m);
    idx = detail::g_marks.size();
    detail::g_marks.push_back(std::move(m));
  }
  record_event(event_kind::mark, label, 0, idx, now_ns());
}

inline std::vector<mark_entry> marks() {
  std::lock_guard<std::mutex> lock(detail::g_marks_m);
  return detail::g_marks;
}

// Copies out every ring's surviving events, oldest first per stripe, merged
// and sorted by timestamp. Call at a quiescent point for a consistent view.
inline drained_trace drain_trace() {
  drained_trace out;
  for (std::size_t w = 0; w < kStripes; ++w) {
    const detail::event_ring& r = detail::g_rings[w];
    const std::uint64_t head = r.head.load(std::memory_order_relaxed);
    const std::uint64_t n = head < kRingCapacity ? head : kRingCapacity;
    out.dropped += head - n;
    for (std::uint64_t i = head - n; i < head; ++i) {
      const detail::event_slot& s = r.slots[i & (kRingCapacity - 1)];
      trace_event e;
      e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      e.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      e.b = s.b.load(std::memory_order_relaxed);
      e.name = s.name.load(std::memory_order_relaxed);
      e.kind = static_cast<event_kind>(s.kind.load(std::memory_order_relaxed));
      e.a = s.a.load(std::memory_order_relaxed);
      e.worker = static_cast<int>(w);
      if (e.name == nullptr) e.name = "?";
      out.events.push_back(e);
    }
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const trace_event& x, const trace_event& y) { return x.ts_ns < y.ts_ns; });
  return out;
}

// Clears the counters, the probe-depth histogram, the rings and the marks.
// Quiescent-point use only.
inline void reset() {
  reset_counters();
  for (auto& r : detail::g_rings) r.head.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(detail::g_marks_m);
  detail::g_marks.clear();
}

#else  // !PHCH_TELEMETRY_ENABLED

inline constexpr std::uint64_t now_ns() noexcept { return 0; }
inline void record_event(event_kind, const char*, std::uint32_t, std::uint64_t,
                         std::uint64_t, std::uint64_t = 0) noexcept {}

class span {
 public:
  explicit span(const char*) noexcept {}
  span(const span&) = delete;
  span& operator=(const span&) = delete;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

inline constexpr std::uint32_t next_table_id() noexcept { return 0; }
inline void note_phase_transition(std::uint32_t, std::uint8_t,
                                  std::uint64_t) noexcept {}

inline void mark(const char*) {}
inline std::vector<mark_entry> marks() { return {}; }
inline drained_trace drain_trace() { return {}; }
inline void reset() {}

#endif  // PHCH_TELEMETRY_ENABLED

}  // namespace phch::obs
