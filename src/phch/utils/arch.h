// Architecture detection and the portable spin-wait hint.
//
// The spin-wait sites (parallel/spinlock.h, room_sync, growable_table, the
// scheduler) want the cheapest "I am busy-waiting" hint the core offers.
// Centralizing the #ifdef ladder here keeps <immintrin.h> from being
// included unconditionally on non-x86 builds, and is the one place vendor
// intrinsic headers may appear (tools/phch_lint.py simd-include).
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

}  // namespace phch
