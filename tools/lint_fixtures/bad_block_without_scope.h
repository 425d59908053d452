// phch_lint: table-header
// Known-bad fixture: `insert_block` runs its ops without opening a phase
// scope, so no phase check could see the block — phch_lint must report
// phase-scope-missing for it.
#pragma once

#include <cstddef>

class bad_block_without_scope {
 public:
  void insert_block(const int* v, std::size_t n, std::size_t width = 12) {
    for (std::size_t i = 0; i < n; i += width) stash_ = v[i];
  }

 private:
  int stash_ = 0;
};
