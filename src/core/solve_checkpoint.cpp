#include "core/solve_checkpoint.hpp"

#include <atomic>

#include "core/level_dp.hpp"

namespace chainckpt::core {

namespace {

std::atomic<SolveCheckpoint::SlabCommitHook> g_slab_commit_hook{nullptr};

template <typename T>
std::size_t capacity_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

}  // namespace

void SolveCheckpoint::set_slab_commit_hook(SlabCommitHook hook) noexcept {
  g_slab_commit_hook.store(hook);
}

void SolveCheckpoint::begin_run(std::size_t n, Algorithm algorithm) {
  const bool matches = valid_ && n_ == n && algorithm_ == algorithm;
  last_run_executed_ = 0;
  last_run_skipped_ = 0;
  last_run_resumed_ = matches;
  if (matches) return;
  // Shape change (or first run): any stored progress is for a different
  // solve -- drop it.  Callers keying checkpoints by workload (see
  // core::BatchSolver) never hit this reset on a resume.
  tables_ = std::make_shared<detail::LevelTables>(n);
  slab_done_.assign(n, 0);
  committed_ = 0;
  n_ = n;
  algorithm_ = algorithm;
  valid_ = true;
}

void SolveCheckpoint::commit_slab(std::size_t d1) {
  slab_done_[d1] = 1;
  ++last_run_executed_;
  const std::size_t committed = ++committed_;
  if (const SlabCommitHook hook = g_slab_commit_hook.load()) {
    hook(*this, committed);
  }
}

void SolveCheckpoint::note_skipped_slab() { ++last_run_skipped_; }

std::size_t SolveCheckpoint::resident_bytes() const noexcept {
  std::size_t bytes = capacity_bytes(slab_done_);
  if (tables_ != nullptr) {
    const detail::LevelTables& t = *tables_;
    bytes += capacity_bytes(t.emem) + capacity_bytes(t.best_m1) +
             capacity_bytes(t.edisk) + capacity_bytes(t.best_d1);
  }
  return bytes;
}

}  // namespace chainckpt::core
