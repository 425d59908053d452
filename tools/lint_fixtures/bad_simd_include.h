// Known-bad fixture: pulls a vendor intrinsic header outside its dedicated
// home (utils/arch.h) — phch_lint must report
// simd-include even though the include is guarded.
#pragma once

#if defined(__AVX2__)
#include <immintrin.h>
#endif
