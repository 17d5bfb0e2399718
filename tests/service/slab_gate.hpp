// Test helper shared by the service and wire batteries.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <set>

#include "core/solve_checkpoint.hpp"

namespace chainckpt {

/// Holds level-DP solves at a known amount of progress through
/// core::SolveCheckpoint's slab-commit seam: while armed, every thread
/// that commits a slab of a solve with at least `slabs` committed slabs
/// parks until release(), so the solve claims no new slab.  Installed for
/// the gate's lifetime; one gate at a time.
class SlabGate {
 public:
  explicit SlabGate(std::size_t slabs) {
    {
      const std::lock_guard<std::mutex> lock(state().mutex);
      state().slabs = slabs;
      state().armed = true;
      state().parked.clear();
    }
    core::SolveCheckpoint::set_slab_commit_hook(&SlabGate::hook);
  }
  ~SlabGate() {
    release();
    core::SolveCheckpoint::set_slab_commit_hook(nullptr);
  }
  SlabGate(const SlabGate&) = delete;
  SlabGate& operator=(const SlabGate&) = delete;

  /// Waits until threads of `solves` distinct solves are parked; false
  /// when that takes longer than a generous bound.
  bool wait_parked(std::size_t solves) {
    std::unique_lock<std::mutex> lock(state().mutex);
    return state().changed.wait_for(lock, std::chrono::seconds(60), [&] {
      return state().parked.size() >= solves;
    });
  }

  /// Disarms the gate and wakes every parked thread.
  void release() {
    {
      const std::lock_guard<std::mutex> lock(state().mutex);
      state().armed = false;
    }
    state().changed.notify_all();
  }

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable changed;
    std::size_t slabs = 0;
    bool armed = false;
    std::set<const core::SolveCheckpoint*> parked;
  };
  static State& state() {
    static State s;
    return s;
  }
  static void hook(const core::SolveCheckpoint& checkpoint,
                   std::size_t committed) {
    State& s = state();
    std::unique_lock<std::mutex> lock(s.mutex);
    if (!s.armed || committed < s.slabs) return;
    s.parked.insert(&checkpoint);
    s.changed.notify_all();
    s.changed.wait(lock, [&] { return !s.armed; });
  }
};

}  // namespace chainckpt
