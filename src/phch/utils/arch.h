// Architecture detection, the portable spin-wait hint and the prefetch
// wrappers.
//
// The spin-wait sites (parallel/spinlock.h, growable_table, the scheduler)
// want the cheapest "I am busy-waiting" hint the core offers.
// Centralizing the #ifdef ladder here keeps <immintrin.h> from being
// included unconditionally on non-x86 builds, and is the one place vendor
// intrinsic headers may appear (tools/phch_lint.py simd-include).
//
// The prefetch wrappers serve the tables' batch rings (core/batch_ops.h)
// and the BFS frontier walk (apps/bfs.h).
#pragma once

#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#define PHCH_ARCH_X86 1
#include <immintrin.h>
#else
#define PHCH_ARCH_X86 0
#endif

#if defined(__aarch64__)
#define PHCH_ARCH_AARCH64 1
#else
#define PHCH_ARCH_AARCH64 0
#endif

namespace phch {

// One busy-wait iteration's worth of politeness: tells the core to stall
// the speculative pipeline / release shared resources while another thread
// makes progress. Never a syscall except on ISAs with no hint at all.
inline void cpu_relax() noexcept {
#if PHCH_ARCH_X86
  _mm_pause();
#elif PHCH_ARCH_AARCH64
  // ISB stalls longer than YIELD (which many cores treat as a NOP), making
  // it the closer analogue of x86 PAUSE for spin-wait loops.
  asm volatile("isb" ::: "memory");
#elif defined(__ARM_ARCH)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

namespace detail {
// Locality 3 (prefetcht0): the line is consumed within a few operations
// (one ring rotation, or a few frontier vertices), so it must land in L1,
// not just an outer level.
//
// GCC deems a function whose only effect is a prefetch const, and may
// delete a call to it before inlining it. These wrappers, and every
// prefetch-only helper built on them, are therefore always inlined.
[[gnu::always_inline]] inline void prefetch_ro(const void* p) noexcept {
  __builtin_prefetch(p, 0, 3);
}
[[gnu::always_inline]] inline void prefetch_rw(const void* p) noexcept {
  __builtin_prefetch(p, 1, 3);
}
}  // namespace detail

}  // namespace phch
