// Named per-table metric registry.
//
// The counters and histograms are process-wide; the registry adds the one
// per-table view: a table (or the app that owns it) registers itself under
// a stable name, and the exporters (obs/prom.h, tools) can then report
// per-table gauges (capacity, phase epoch) next to the process totals.
//
// Registration is duck-typed: register_table(name, t) probes the table at
// compile time for capacity() / phase_rt().epoch() and
// wires up only the gauges the type actually has, so every
// table family (probe_engine specializations, growable_table,
// auto_phased_table, the sparse tables) registers with the same one-liner.
// The stored callables reference the table, so the registration must not
// outlive it — scoped_registration ties the two lifetimes together, and
// growable_table re-resolves its current inner table on every read (its
// callables go through the outer object, which is stable across growth;
// growth frees the old inner table, so sample a growable table outside its
// insert phases, as phch_monitor does between workload cycles).
//
// Reads (snapshot_tables) materialize the gauge values under the registry
// mutex; unregistration takes the same mutex, so a table is never sampled
// mid-destruction. Like everything in obs/, the whole registry compiles to
// empty inline no-ops when PHCH_TELEMETRY is off.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "phch/obs/telemetry.h"

namespace phch::obs {

// A materialized (already-sampled) view of one registered table, safe to
// use after the registry lock is released.
struct table_sample {
  std::uint64_t id = 0;
  std::string name;
  std::uint64_t capacity = 0;     // 0 when the type exposes no capacity()
  std::uint64_t phase_epoch = 0;  // phase_rt().epoch() at sample time
  bool has_epoch = false;
};

#if PHCH_TELEMETRY_ENABLED

// The raw registration record: name plus lazy gauge resolvers. Callables
// may be null when the table type lacks the corresponding accessor.
struct table_registration {
  std::string name;
  const void* address = nullptr;
  std::function<std::uint64_t()> capacity;
  std::function<std::uint64_t()> epoch;
};

namespace detail {

struct registry_state {
  std::mutex m;
  std::uint64_t next_id = 1;
  std::vector<std::pair<std::uint64_t, table_registration>> entries;
};

inline registry_state& registry() noexcept {
  static registry_state r;
  return r;
}

}  // namespace detail

// Registers a prepared record; returns the id used to unregister. Names
// need not be unique (two incarnations can briefly coexist) but stable
// names make the Prometheus series continuous.
inline std::uint64_t register_table_entry(table_registration reg) {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.m);
  const std::uint64_t id = r.next_id++;
  r.entries.emplace_back(id, std::move(reg));
  return id;
}

inline void unregister_table(std::uint64_t id) {
  if (id == 0) return;
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.m);
  for (auto it = r.entries.begin(); it != r.entries.end(); ++it) {
    if (it->first == id) {
      r.entries.erase(it);
      return;
    }
  }
}

// Duck-typed registration: wires up whichever of capacity /
// phase_rt().epoch() the table type provides.
template <class Table>
std::uint64_t register_table(std::string name, Table& t) {
  table_registration reg;
  reg.name = std::move(name);
  reg.address = &t;
  if constexpr (requires { t.capacity(); }) {
    reg.capacity = [&t] { return static_cast<std::uint64_t>(t.capacity()); };
  }
  if constexpr (requires { t.phase_rt().epoch(); }) {
    reg.epoch = [&t] { return static_cast<std::uint64_t>(t.phase_rt().epoch()); };
  }
  return register_table_entry(std::move(reg));
}

// Samples every registered table's gauges under the lock.
// Call at (or near) a quiescent point for exact values; mid-phase reads
// are approximate exactly like counter sums.
inline std::vector<table_sample> snapshot_tables() {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.m);
  std::vector<table_sample> out;
  out.reserve(r.entries.size());
  for (const auto& [id, reg] : r.entries) {
    table_sample s;
    s.id = id;
    s.name = reg.name;
    if (reg.capacity) s.capacity = reg.capacity();
    if (reg.epoch) {
      s.phase_epoch = reg.epoch();
      s.has_epoch = true;
    }
    out.push_back(std::move(s));
  }
  return out;
}

// RAII registration whose lifetime matches the owning scope (the apps wrap
// their workload tables in one so the monitor can attribute metrics).
class scoped_registration {
 public:
  scoped_registration() = default;
  template <class Table>
  scoped_registration(std::string name, Table& t)
      : id_(register_table(std::move(name), t)) {}
  scoped_registration(const scoped_registration&) = delete;
  scoped_registration& operator=(const scoped_registration&) = delete;
  scoped_registration(scoped_registration&& o) noexcept : id_(o.id_) { o.id_ = 0; }
  scoped_registration& operator=(scoped_registration&& o) noexcept {
    if (this != &o) {
      unregister_table(id_);
      id_ = o.id_;
      o.id_ = 0;
    }
    return *this;
  }
  ~scoped_registration() { unregister_table(id_); }

 private:
  std::uint64_t id_ = 0;
};

#else  // !PHCH_TELEMETRY_ENABLED

inline std::uint64_t register_table_entry(...) { return 0; }
inline void unregister_table(std::uint64_t) {}

template <class Table>
std::uint64_t register_table(std::string, Table&) {
  return 0;
}

inline std::vector<table_sample> snapshot_tables() { return {}; }

class scoped_registration {
 public:
  scoped_registration() = default;
  template <class Table>
  scoped_registration(std::string, Table&) {}
  scoped_registration(const scoped_registration&) = delete;
  scoped_registration& operator=(const scoped_registration&) = delete;
  scoped_registration(scoped_registration&&) noexcept {}
  scoped_registration& operator=(scoped_registration&&) noexcept { return *this; }
};

#endif  // PHCH_TELEMETRY_ENABLED

}  // namespace phch::obs
