#include "phch/parallel/scheduler.h"

#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "phch/obs/telemetry.h"
#include "phch/parallel/spinlock.h"

namespace phch {

namespace detail {
constinit thread_local worker_state* tl_worker = nullptr;
constinit thread_local std::uint64_t tl_worker_gen = 0;
constinit thread_local int tl_depth = 0;
}  // namespace detail

namespace {

// Pool generations are numbered globally so a thread registered with an old
// pool (before a set_num_workers rebuild) is detected by a cheap integer
// compare instead of dereferencing a dangling worker_state pointer.
std::atomic<std::uint64_t> global_generation{0};

// Steal-failure thresholds for the idle backoff ladder:
// pause -> yield -> 1 ms condition-variable sleep.
constexpr int kSpinFailures = 32;
constexpr int kYieldFailures = 256;

int default_workers() {
  if (const char* env = std::getenv("PHCH_THREADS")) {
    const int p = std::atoi(env);
    if (p >= 1) return p;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

scheduler& scheduler::get() {
  static scheduler instance;
  return instance;
}

scheduler::scheduler() : num_workers_(default_workers()) { start_workers(); }

scheduler::~scheduler() { stop_workers(); }

void scheduler::start_workers() {
  generation_ = global_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  workers_.reserve(static_cast<std::size_t>(num_workers_));
  for (int id = 0; id < num_workers_; ++id) {
    workers_.emplace_back(std::make_unique<detail::worker_state>(
        this, id, mix64(generation_ * 0x10001ULL + static_cast<std::uint64_t>(id))));
  }
  // The calling thread is worker 0 of this generation.
  detail::tl_worker = workers_[0].get();
  detail::tl_worker_gen = generation_;
  obs::bind_worker(0);
  threads_.reserve(static_cast<std::size_t>(num_workers_ - 1));
  for (int id = 1; id < num_workers_; ++id) {
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
}

void scheduler::stop_workers() {
  shutdown_.store(true, std::memory_order_release);
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  workers_.clear();
  detail::tl_worker = nullptr;
  shutdown_.store(false, std::memory_order_relaxed);
}

void scheduler::set_num_workers(int p) {
  if (p < 1) throw std::invalid_argument("scheduler: worker count must be >= 1");
  if (detail::tl_depth > 0) {
    throw std::logic_error("scheduler: set_num_workers called inside a parallel region");
  }
  if (p == num_workers_ && detail::tl_worker != nullptr &&
      detail::tl_worker_gen == generation_ && detail::tl_worker->id == 0) {
    return;  // caller is already the registered main thread of a pool this size
  }
  stop_workers();
  num_workers_ = p;
  start_workers();
}

void scheduler::worker_loop(int id) {
  detail::worker_state& self = *workers_[static_cast<std::size_t>(id)];
  detail::tl_worker = &self;
  detail::tl_worker_gen = generation_;
  obs::bind_worker(id);
  int failures = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (detail::ws_task* t = try_steal(self)) {
      detail::depth_guard depth;
      t->run();
      failures = 0;
    } else {
      if (++failures < kSpinFailures) {
        cpu_relax();
      } else if (failures < kYieldFailures) {
        std::this_thread::yield();
      } else {
        // Deep idle: sleep until fork_join signals new work (or 1 ms passes
        // — the timeout bounds the cost of a missed notify, so signal_work
        // can stay lock-free on the push path).
        obs::count(obs::counter::backoff_sleeps);
        {
          std::unique_lock<std::mutex> lock(sleep_m_);
          num_sleeping_.fetch_add(1, std::memory_order_relaxed);
          sleep_cv_.wait_for(lock, std::chrono::milliseconds(1));
          num_sleeping_.fetch_sub(1, std::memory_order_relaxed);
        }
        failures = kSpinFailures;  // resume at yield-level polling
      }
    }
  }
  detail::tl_worker = nullptr;
}

detail::ws_task* scheduler::try_steal(detail::worker_state& self) {
  const int p = num_workers_;
  if (p <= 1) return nullptr;
  // One sweep over all other deques starting at a random victim (xorshift).
  std::uint64_t x = self.rng;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  self.rng = x;
  const int start = static_cast<int>(x % static_cast<std::uint64_t>(p));
  for (int k = 0; k < p; ++k) {
    int v = start + k;
    if (v >= p) v -= p;
    if (v == self.id) continue;
    if (detail::ws_task* t = workers_[static_cast<std::size_t>(v)]->deque.steal()) {
      obs::count(obs::counter::steals);
      return t;
    }
  }
  obs::count(obs::counter::steal_failures);
  return nullptr;
}

void scheduler::wait_for(detail::ws_task& t) {
  detail::worker_state& self = *detail::tl_worker;
  int failures = 0;
  while (!t.done()) {
    if (detail::ws_task* s = try_steal(self)) {
      s->run();
      failures = 0;
    } else if (++failures < kSpinFailures) {
      cpu_relax();
    } else {
      // Never deep-sleep on a join: task completion is not signalled, and
      // yield keeps single-core machines making progress on the thief.
      std::this_thread::yield();
    }
  }
}

}  // namespace phch
