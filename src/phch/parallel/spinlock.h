// Test-and-test-and-set spinlock used by the lock-based baseline tables
// (cuckoo, hopscotch, chained). Meets the Lockable requirements so it works
// with std::lock_guard / std::scoped_lock.
#pragma once

#include <atomic>
#include <thread>

#include "phch/utils/arch.h"  // cpu_relax

namespace phch {

class spinlock {
 public:
  spinlock() noexcept = default;
  spinlock(const spinlock&) = delete;
  spinlock& operator=(const spinlock&) = delete;

  // Escalates from pause to yield so an oversubscribed work-stealing pool
  // (more runnable threads than cores) cannot starve the lock holder.
  void lock() noexcept {
    int spins = 0;
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins < 128) {
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }

  bool try_lock() noexcept {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept {
    locked_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace phch
