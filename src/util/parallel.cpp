#include "util/parallel.hpp"

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace chainckpt::util {

namespace {

std::atomic<int> g_forced_threads{0};

int default_parallelism() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
#endif
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// The process-wide helper pool.  Published loops sit in `loops_`, oldest
/// first; an idle helper joins the oldest one with unclaimed indices, so
/// helpers take whole outer iterations while any are left and then finish
/// the nested loops of the iterations still running.  At most
/// hardware_parallelism() - 1 helpers are inside loops at a time.
class Pool {
 public:
  void run(detail::Loop& loop, int threads) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto want = static_cast<std::size_t>(threads - 1);
      while (helpers_.size() < want) {
        helpers_.emplace_back([this] { helper_main(); });
      }
      loops_.push_back(&loop);
      // Wake only helpers that may join: publishing while none sleeps
      // (every thread busy) makes no syscall.
      const int room = threads - 1 - working_;
      for (int woken = 0; woken < std::min(room, sleeping_); ++woken) {
        wake_.notify_one();
      }
    }
    loop.run();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      loops_.erase(std::find(loops_.begin(), loops_.end(), &loop));
      loop.helpers_left.wait(lock, [&] { return loop.helpers == 0; });
    }
    loop.rethrow_first_error();
  }

 private:
  void helper_main() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      detail::Loop* loop = nullptr;
      if (working_ < hardware_parallelism() - 1) {
        for (detail::Loop* candidate : loops_) {
          if (candidate->has_unclaimed()) {
            loop = candidate;
            break;
          }
        }
      }
      if (loop == nullptr) {
        ++sleeping_;
        wake_.wait(lock);
        --sleeping_;
        continue;
      }
      ++loop->helpers;
      ++working_;
      lock.unlock();
      loop->run();
      lock.lock();
      --working_;
      if (--loop->helpers == 0) loop->helpers_left.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;  ///< idle helpers: a loop was published
  std::vector<detail::Loop*> loops_;
  int working_ = 0;   ///< helpers inside a loop
  int sleeping_ = 0;  ///< helpers waiting on wake_
  /// Never joined: the pool lives until the process exits.
  std::vector<std::thread> helpers_;
};

Pool& pool() {
  // Leaked on purpose: helpers block on the pool's mutex and condition
  // variable until the process exits.
  static Pool* p = new Pool;
  return *p;
}

}  // namespace

int hardware_parallelism() noexcept {
  const int forced = g_forced_threads.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const int detected = default_parallelism();
  return detected;
}

void set_parallelism(int threads) noexcept {
  g_forced_threads.store(threads < 0 ? 0 : threads);
}

namespace detail {

void Loop::run() noexcept {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end_) return;
    try {
      invoke_(body_, i);
    } catch (...) {
      if (!failed_.exchange(true)) error_ = std::current_exception();
    }
  }
}

void Loop::rethrow_first_error() const {
  if (error_) std::rethrow_exception(error_);
}

void run_loop(Loop& loop, int threads) { pool().run(loop, threads); }

}  // namespace detail

}  // namespace chainckpt::util
