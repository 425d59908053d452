// phch_lint: table-header
// Known-bad fixture: `insert` opens its phase scope; `erase` opens none, and
// neither does the erase_impl it delegates to; `elements` (a template return
// type) only calls its storage's elements(), which is no table operation.
// phch_lint must report phase-scope-missing for `erase` and `elements`, and
// not for `insert`.
#pragma once

#include <vector>

struct fixture_phase {
  struct scope {
    scope(int&, int) {}
  };
};

struct fixture_slots {
  std::vector<int> elements() const;  // declared only: not scanned
};

class bad_missing_phase_scope {
 public:
  void insert(int v) {
    typename fixture_phase::scope guard(phase_, 0);
    stash_ = v;
  }

  void erase(int k) { erase_impl(k); }

  std::vector<int> elements() const { return slots_.elements(); }

 private:
  void erase_impl(int) { stash_ = 0; }

  fixture_slots slots_;
  int phase_ = 0;
  int stash_ = 0;
};
