// phch_lint: table-header
// Known-good fixture: a minimal "table" that satisfies every phch_lint
// policy — phase scopes on every public operation, explicitly ordered
// atomics covered by the fixture contract, no vendor intrinsics.
#pragma once

#include <atomic>
#include <cstddef>

struct fixture_phase {
  struct scope {
    scope(int&, int) {}
  };
};

class good_table {
 public:
  void insert(int v) {
    typename fixture_phase::scope guard(phase_, 0);
    last_.store(v, std::memory_order_release);
  }

  int find(int) const {
    typename fixture_phase::scope guard(phase_, 2);
    return last_.load(std::memory_order_acquire);
  }

  bool contains(int k) const {
    return find(k) != 0;  // delegation counts as a scope
  }

  void insert_batch(const int* v, std::size_t n) {
    insert_batch_range(v, n);  // so does delegation to a *_range form
  }

 private:
  void insert_batch_range(const int* v, std::size_t n) {
    typename fixture_phase::scope guard(phase_, 0);
    if (n != 0) last_.store(v[n - 1], std::memory_order_release);
  }

  mutable int phase_ = 0;
  std::atomic<int> last_{0};
};
