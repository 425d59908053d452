// Probe-structure analysis for open-addressing tables: probe-length
// distribution and cluster statistics over a raw slot array. Used by the
// load-factor benchmark (Figure 5's explanation: costs track probe lengths)
// and by tests to validate layout properties quantitatively.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "phch/core/table_concepts.h"
#include "phch/parallel/primitives.h"

namespace phch {

struct probe_stats {
  double mean_probe = 0;     // average #slots inspected to find a present key
  std::size_t max_probe = 0;
  double mean_cluster = 0;   // average run of occupied slots
  std::size_t max_cluster = 0;
  std::size_t occupied = 0;
  std::size_t clusters = 0;
};

// Computes probe/cluster statistics of a slot array (any table exposing
// raw_slots() + capacity() with linear probing semantics).
template <typename Traits>
probe_stats analyze_slots(const typename Traits::value_type* slots, std::size_t capacity) {
  probe_stats st;
  // A zero-capacity array has no slots to scan, and a fully-empty one has
  // no probe sequences or clusters: both are all-zero stats. The early
  // return also keeps the cluster scan below from reading past a
  // zero-length array (capacity - 1 underflows) or spinning looking for an
  // empty slot that the occupancy checks would otherwise rule out.
  if (capacity == 0) return st;
  const std::size_t mask = capacity - 1;

  // Probe length of each stored element: distance from home to slot + 1.
  std::vector<std::size_t> probes = pack(
      capacity,
      [&](std::size_t j) { return !Traits::is_empty(slots[j]); },
      [&](std::size_t j) {
        if (Traits::is_empty(slots[j])) return std::size_t{0};  // pack gets every slot
        const std::size_t home = Traits::hash(Traits::key(slots[j])) & mask;
        return ((j - home) & mask) + 1;
      });
  st.occupied = probes.size();
  if (st.occupied == 0) return st;  // empty table: all statistics are zero
  {
    std::size_t total = 0;
    for (const std::size_t p : probes) {
      total += p;
      st.max_probe = std::max(st.max_probe, p);
    }
    st.mean_probe = static_cast<double>(total) / static_cast<double>(st.occupied);
  }

  // Cluster lengths: maximal runs of occupied slots (with wraparound).
  if (st.occupied == capacity) {
    st.clusters = 1;
    st.mean_cluster = static_cast<double>(capacity);
    st.max_cluster = capacity;
    return st;
  }
  // Start scanning from an empty slot so wraparound runs are counted once.
  std::size_t start = 0;
  while (!Traits::is_empty(slots[start])) ++start;
  std::size_t run = 0;
  std::size_t total_run = 0;
  for (std::size_t step = 0; step < capacity; ++step) {
    const std::size_t j = (start + step) & mask;
    if (!Traits::is_empty(slots[j])) {
      ++run;
    } else if (run > 0) {
      ++st.clusters;
      total_run += run;
      st.max_cluster = std::max(st.max_cluster, run);
      run = 0;
    }
  }
  if (run > 0) {  // final run (ends just before `start`, which is empty)
    ++st.clusters;
    total_run += run;
    st.max_cluster = std::max(st.max_cluster, run);
  }
  if (st.clusters > 0) {
    st.mean_cluster = static_cast<double>(total_run) / static_cast<double>(st.clusters);
  }
  return st;
}

template <open_addressing_table Table>
probe_stats analyze(const Table& t) {
  return analyze_slots<typename Table::traits>(t.raw_slots(), t.capacity());
}

}  // namespace phch
