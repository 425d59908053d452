// phch_lint: table-header
// Known-bad fixture: `erase` carries the annotation but opens no phase
// scope — phch_lint must report phase-scope-missing. `insert` lacks
// the annotation entirely — phase-annotation-missing.
#pragma once

class bad_missing_phase_scope {
 public:
  void insert(int v) { stash = v; }

  void erase(int) PHCH_REQUIRES_PHASE(erase) { stash = 0; }

 private:
  int stash = 0;
};
