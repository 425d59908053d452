// Quickstart: the deterministic phase-concurrent hash table in four phases.
//
//   ./quickstart [n]
//
// Demonstrates the core API — phase-separated concurrent inserts, finds,
// elements() and deletes — and the headline guarantee: the packed contents
// are identical no matter how the inserts were interleaved. Exits 1 if they
// are not.
#include <cstdio>
#include <cstdlib>

#include "phch/core/deterministic_table.h"
#include "phch/parallel/parallel_for.h"
#include "phch/utils/rand.h"
#include "phch/utils/timer.h"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000000;
  std::printf("phch quickstart: n = %zu keys, %d worker threads\n", n,
              phch::num_workers());

  // A table sized at ~1/3 load (power of two), as in the paper's benchmarks.
  phch::deterministic_table<phch::int_entry<>> table(3 * n);

  // --- insert phase: any number of threads, inserts only -----------------
  phch::timer t;
  phch::parallel_for(0, n, [&](std::size_t i) {
    table.insert(1 + phch::hash64(i) % n);  // duplicates are fine
  });
  std::printf("inserted %zu keys (%zu distinct) in %.3fs\n", n, table.count(),
              t.elapsed());

  // --- find phase ----------------------------------------------------------
  t.reset();
  std::atomic<std::size_t> found{0};
  phch::parallel_for(0, n, [&](std::size_t i) {
    if (table.contains(1 + phch::hash64(i) % n)) found.fetch_add(1);
  });
  std::printf("found   %zu / %zu lookups in %.3fs\n", found.load(), n, t.elapsed());

  // --- elements(): deterministic packed contents --------------------------
  t.reset();
  const auto contents = table.elements();
  std::printf("elements() returned %zu keys in %.3fs\n", contents.size(), t.elapsed());

  // Determinism check: a second table filled in reverse order has an
  // identical layout, so elements() returns the identical sequence.
  phch::deterministic_table<phch::int_entry<>> reversed(3 * n);
  phch::parallel_for(0, n, [&](std::size_t i) {
    reversed.insert(1 + phch::hash64(n - 1 - i) % n);
  });
  const bool identical = contents == reversed.elements();
  std::printf("reverse-order insert gives identical elements(): %s\n",
              identical ? "yes" : "NO (bug!)");

  // --- delete phase --------------------------------------------------------
  t.reset();
  phch::parallel_for(0, n / 2, [&](std::size_t i) {
    table.erase(1 + phch::hash64(i) % n);
  });
  std::printf("deleted half the keys in %.3fs; %zu remain\n", t.elapsed(),
              table.count());
  return identical ? 0 : 1;
}
