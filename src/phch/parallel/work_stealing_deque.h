// Chase–Lev work-stealing deque (Chase & Lev, SPAA 2005) with the portable
// C11/C++11 memory orderings of Lê, Pop, Cohen & Zappa Nardelli (PPoPP 2013).
//
// One owner thread pushes and pops tasks at the *bottom* (LIFO, preserving
// the serial depth-first order and cache locality of fork-join work);
// any number of thieves steal from the *top* (FIFO, taking the oldest —
// and therefore largest — pending subtree). The deque stores raw pointers;
// task lifetime is managed by the forker (tasks live on the forker's stack
// until joined).
//
// The ring buffer grows geometrically when full. A concurrent thief may
// still be reading a slot from a superseded ring (the subsequent CAS on
// `top_` detects and discards any such stale read), so superseded rings
// cannot be deleted in place. grow() instead chains the old ring to the new
// one (`ring::prev`), and the chain is freed with the deque: a stale read
// always hits live memory. Capacities double, so the retained rings together
// are smaller than the live ring.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace phch {
namespace detail {

// ThreadSanitizer does not model standalone atomic_thread_fence, so under
// TSan every ordering is strengthened to seq_cst and the fences compile
// away; this is strictly stronger, just slower.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsanBuild = true;
#else
inline constexpr bool kTsanBuild = false;
#endif
#else
inline constexpr bool kTsanBuild = false;
#endif

constexpr std::memory_order mo(std::memory_order m) noexcept {
  return kTsanBuild ? std::memory_order_seq_cst : m;
}

inline void seq_cst_fence() noexcept {
  if constexpr (!kTsanBuild) std::atomic_thread_fence(std::memory_order_seq_cst);
}

template <typename T>
class work_stealing_deque {
 public:
  explicit work_stealing_deque(std::int64_t initial_capacity = 64) {
    buf_.store(new ring(initial_capacity), std::memory_order_relaxed);
  }

  work_stealing_deque(const work_stealing_deque&) = delete;
  work_stealing_deque& operator=(const work_stealing_deque&) = delete;

  // Destroying the deque requires quiescence (no concurrent thieves); it
  // frees the live ring and, through its prev chain, every superseded one.
  ~work_stealing_deque() { delete buf_.load(std::memory_order_relaxed); }

  // Owner only. Pushes `x` at the bottom, growing the ring if full.
  void push_bottom(T* x) {
    const std::int64_t b = bottom_.load(mo(std::memory_order_relaxed));
    const std::int64_t t = top_.load(mo(std::memory_order_acquire));
    ring* a = buf_.load(mo(std::memory_order_relaxed));
    if (b - t > a->capacity - 1) a = grow(a, t, b);
    a->put(b, x);
    // Publish the slot before publishing the new bottom so a thief that
    // observes bottom == b+1 also observes the stored pointer.
    if constexpr (kTsanBuild) {
      bottom_.store(b + 1, std::memory_order_seq_cst);
    } else {
      std::atomic_thread_fence(std::memory_order_release);
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  }

  // Owner only. Pops the most recently pushed task, or nullptr if the deque
  // is empty (including the case where a thief won the race for the last
  // remaining task).
  T* pop_bottom() {
    const std::int64_t b = bottom_.load(mo(std::memory_order_relaxed)) - 1;
    ring* a = buf_.load(mo(std::memory_order_relaxed));
    bottom_.store(b, mo(std::memory_order_relaxed));
    seq_cst_fence();
    std::int64_t t = top_.load(mo(std::memory_order_relaxed));
    T* x;
    if (t <= b) {
      x = a->get(b);
      if (t == b) {
        // Single element left: race a thief for it via the CAS on top.
        if (!top_.compare_exchange_strong(t, t + 1, mo(std::memory_order_seq_cst),
                                          mo(std::memory_order_relaxed))) {
          x = nullptr;  // thief got it
        }
        bottom_.store(b + 1, mo(std::memory_order_relaxed));
      }
    } else {
      x = nullptr;
      bottom_.store(b + 1, mo(std::memory_order_relaxed));
    }
    return x;
  }

  // Any thread. Steals the oldest task, or returns nullptr when the deque
  // is empty or another thief (or the owner) won the race.
  T* steal() {
    std::int64_t t = top_.load(mo(std::memory_order_acquire));
    seq_cst_fence();
    const std::int64_t b = bottom_.load(mo(std::memory_order_acquire));
    if (t >= b) return nullptr;
    ring* a = buf_.load(mo(std::memory_order_acquire));
    T* x = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, mo(std::memory_order_seq_cst),
                                      mo(std::memory_order_relaxed))) {
      return nullptr;  // lost the race; the read of x may be stale, discard it
    }
    return x;
  }

  // Approximate (racy) emptiness check for cheap idle-loop polling.
  bool empty() const noexcept {
    return bottom_.load(std::memory_order_relaxed) <=
           top_.load(std::memory_order_relaxed);
  }

 private:
  struct ring {
    explicit ring(std::int64_t c)
        : capacity(c), mask(c - 1), slots(new std::atomic<T*>[static_cast<std::size_t>(c)]) {}
    T* get(std::int64_t i) const noexcept {
      return slots[static_cast<std::size_t>(i & mask)].load(mo(std::memory_order_relaxed));
    }
    void put(std::int64_t i, T* x) noexcept {
      slots[static_cast<std::size_t>(i & mask)].store(x, mo(std::memory_order_relaxed));
    }
    const std::int64_t capacity;
    const std::int64_t mask;  // capacity is a power of two
    std::unique_ptr<std::atomic<T*>[]> slots;
    std::unique_ptr<ring> prev;  // the ring this one superseded, if any
  };

  ring* grow(ring* old, std::int64_t t, std::int64_t b) {
    ring* bigger = new ring(2 * old->capacity);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    bigger->prev.reset(old);  // kept alive for thieves still reading it
    buf_.store(bigger, mo(std::memory_order_release));
    return bigger;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<ring*> buf_{nullptr};
};

}  // namespace detail
}  // namespace phch
