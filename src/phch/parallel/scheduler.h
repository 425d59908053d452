// Work-stealing fork-join scheduler: per-worker Chase–Lev deques, a
// `fork_join` task primitive, randomized victim selection, and exponential
// backoff to idle sleep. This gives the library the Cilk-style nested-safe
// runtime the paper assumes: parallel constructs issued from *inside* a
// parallel region keep their parallelism instead of degrading to serial.
//
// Model
//  - `scheduler::get()` lazily spawns `num_workers() - 1` worker threads;
//    the thread that first touches the scheduler is registered as worker 0
//    and participates in every computation it issues.
//  - `fork_join(a, b)` pushes `b` on the calling worker's deque (LIFO),
//    runs `a` inline, then pops `b` back (still LIFO) or — if a thief stole
//    it from the FIFO end — steals other work while waiting for the thief
//    to finish. Exceptions from either branch are captured and rethrown on
//    the forking thread after both branches have joined.
//  - Idle workers steal from uniformly random victims; repeated failures
//    back off from pause to yield to a 1 ms condition-variable sleep, and
//    `fork_join` wakes sleepers whenever new work is pushed.
//  - Threads that are not pool workers (e.g. user threads issuing table
//    operations concurrently) run parallel constructs serially inline;
//    they have no deque, which keeps the pool deadlock-free.
//  - Worker count comes from the PHCH_THREADS environment variable, falling
//    back to std::thread::hardware_concurrency(). Benchmarks may change it
//    at a quiescent point with `set_num_workers`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "phch/parallel/work_stealing_deque.h"

namespace phch {

class scheduler;

namespace detail {

// A forkable unit of work. fork_join stack-allocates one per fork; `done_`
// is the join flag and `error_` carries an exception from a thief back to
// the forking thread.
class ws_task {
 public:
  virtual void call() = 0;

  void run() noexcept {
    try {
      call();
    } catch (...) {
      error_ = std::current_exception();
    }
    done_.store(true, std::memory_order_release);
  }

  bool done() const noexcept { return done_.load(std::memory_order_acquire); }

  // Only meaningful once done() is true.
  const std::exception_ptr& error() const noexcept { return error_; }

 protected:
  ~ws_task() = default;

 private:
  std::atomic<bool> done_{false};
  std::exception_ptr error_;
};

template <typename F>
class lambda_task final : public ws_task {
 public:
  explicit lambda_task(F& f) noexcept : f_(f) {}
  void call() override { f_(); }

 private:
  F& f_;
};

// Per-worker state, cache-line separated. Address-stable for the lifetime
// of the pool generation (workers_ holds unique_ptrs).
struct alignas(64) worker_state {
  worker_state(scheduler* s, int worker_id, std::uint64_t seed)
      : owner(s), id(worker_id), rng(seed | 1) {}
  scheduler* owner;
  int id;
  std::uint64_t rng;  // xorshift state for victim selection
  work_stealing_deque<ws_task> deque;
};

// Current thread's worker registration (nullptr on non-pool threads), the
// pool generation it belongs to (compared before dereferencing tl_worker so
// a registration left over from before a set_num_workers rebuild is treated
// as "not a pool thread" instead of a dangling pointer), and the fork
// nesting depth (0 outside any parallel region). constinit: their
// initializers are constants, so no access goes through a TLS init
// function. GCC 12 otherwise tests a weak reference to that function
// before each access, and its UBSan null check branched on that test.
extern constinit thread_local worker_state* tl_worker;
extern constinit thread_local std::uint64_t tl_worker_gen;
extern constinit thread_local int tl_depth;

struct depth_guard {
  depth_guard() noexcept { ++tl_depth; }
  ~depth_guard() { --tl_depth; }
};

}  // namespace detail

// Runs every parallel construct the calling thread issues inside the scope
// serially inline, as on a thread outside the pool. For code that holds
// something other tasks wait for: its joins would otherwise steal tasks
// while waiting, and a stolen task that waits for the holder — on the
// holder's own stack — never finishes.
class serial_region {
 public:
  serial_region() noexcept : saved_(detail::tl_worker) { detail::tl_worker = nullptr; }
  ~serial_region() { detail::tl_worker = saved_; }
  serial_region(const serial_region&) = delete;
  serial_region& operator=(const serial_region&) = delete;

 private:
  detail::worker_state* saved_;
};

class scheduler {
 public:
  // Global scheduler instance (workers are started on first use).
  static scheduler& get();

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;
  ~scheduler();

  // Total parallelism, including the registered main thread. Always >= 1.
  int num_workers() const noexcept { return num_workers_; }

  // True while the current thread is executing inside a parallel region.
  static bool in_parallel() noexcept { return detail::tl_depth > 0; }

  // Id of the calling pool worker in [0, num_workers()), or -1 for threads
  // that are not part of the pool.
  static int worker_id() noexcept {
    return detail::tl_worker == nullptr ? -1 : detail::tl_worker->id;
  }

  // Re-sizes the pool. Must be called at a quiescent point (no tasks in
  // flight); the calling thread becomes the registered worker 0.
  void set_num_workers(int p);

  // The fork-join primitive everything else is layered on: spawns `b` as a
  // stealable task, runs `a` inline, joins both, then rethrows the first
  // captured exception (a's before b's). On threads that are not pool
  // workers, runs both serially.
  template <typename A, typename B>
  void fork_join(A&& a, B&& b) {
    detail::worker_state* w = detail::tl_worker;
    if (w == nullptr || detail::tl_worker_gen != generation_ || num_workers_ == 1) {
      serial_pair(std::forward<A>(a), std::forward<B>(b));
      return;
    }
    using task_t = detail::lambda_task<std::remove_reference_t<B>>;
    task_t tb(b);
    w->deque.push_bottom(&tb);
    signal_work();
    std::exception_ptr ea;
    {
      detail::depth_guard depth;
      try {
        a();
      } catch (...) {
        ea = std::current_exception();
      }
      // Forks inside a() are fully joined before it returns (even when it
      // throws), so the bottom of the deque is either &tb or tb was stolen.
      if (w->deque.pop_bottom() != nullptr) {
        tb.run();  // not stolen: run the forked half inline
      } else {
        wait_for(tb);  // steal other work until the thief finishes tb
      }
    }
    if (ea) std::rethrow_exception(ea);
    if (tb.error()) std::rethrow_exception(tb.error());
  }

 private:
  scheduler();
  void start_workers();
  void stop_workers();
  void worker_loop(int id);

  // Runs both thunks serially with the nesting depth bumped, preserving
  // exactly-once semantics and exception priority (a's error wins).
  template <typename A, typename B>
  void serial_pair(A&& a, B&& b) {
    detail::depth_guard depth;
    std::exception_ptr ea;
    try {
      a();
    } catch (...) {
      ea = std::current_exception();
    }
    std::exception_ptr eb;
    try {
      b();
    } catch (...) {
      eb = std::current_exception();
    }
    if (ea) std::rethrow_exception(ea);
    if (eb) std::rethrow_exception(eb);
  }

  // One random steal attempt over all other workers' deques.
  detail::ws_task* try_steal(detail::worker_state& self);

  // Steal-while-waiting join: executes other tasks until t completes.
  void wait_for(detail::ws_task& t);

  // Wakes a sleeping worker if any; called whenever work is pushed.
  void signal_work() noexcept {
    if (num_sleeping_.load(std::memory_order_relaxed) > 0) sleep_cv_.notify_one();
  }

  int num_workers_;
  std::uint64_t generation_ = 0;  // which pool build registered threads belong to
  std::vector<std::unique_ptr<detail::worker_state>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};

  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<int> num_sleeping_{0};
};

// Convenience accessor used throughout the library.
inline int num_workers() { return scheduler::get().num_workers(); }

}  // namespace phch
