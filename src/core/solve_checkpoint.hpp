// Resumable partial progress for the multi-level DP solves.
//
// The paper's thesis -- two-level checkpointing lets a long computation
// survive interruption at bounded re-execution cost -- applies to the
// solver itself: an ADMV solve is O(n^6), and a service that cancels,
// preempts, or deadline-expires one should not pay the whole solve again
// when the job comes back.  SolveCheckpoint is the solver's own
// checkpoint: the level-DP engine (detail::run_level_dp) works in
// independent d1 slabs, and every slab that completes its full
// (d1, j)-frontier commits its row of the E_mem table and its argmins.
// When a CancelToken fires mid-run, the completed slabs stay committed
// here; a later run on the same checkpoint skips them and re-executes
// only the unfinished ones.  The cheap sequential tail (the O(n^2) E_disk
// pass and plan extraction, which recomputes its E_verif rows) reruns.
//
// Determinism: slabs are fully independent (each writes only its own
// rows), so a resumed solve's tables -- and therefore its plan and
// objective -- are bit-identical to an uninterrupted solve's.
// tests/core/solve_checkpoint_test.cpp pins this by interrupting at every
// checkpoint boundary.
//
// Ownership: a checkpoint owns the level tables of every ADMV*/ADMV
// solve -- the drivers run on the one attached through
// DpContext::set_checkpoint(), or else on a solve-local one -- and it
// belongs to exactly one solve at a time (the DP mutates it without
// locking; each slab writes only its own rows and flag, and the counters
// are atomic).  core::BatchSolver
// keeps interrupted checkpoints keyed alongside its cached tables and
// checks one out per solve_job().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace chainckpt::core {

enum class Algorithm;  // core/optimizer.hpp

namespace detail {
struct LevelTables;
}

class SolveCheckpoint {
 public:
  SolveCheckpoint() = default;

  SolveCheckpoint(const SolveCheckpoint&) = delete;
  SolveCheckpoint& operator=(const SolveCheckpoint&) = delete;

  /// Called by the DP driver at solve entry.  Reuses the stored tables
  /// and slab flags when n and the algorithm match the stored progress;
  /// otherwise discards the progress and allocates fresh tables.  Resets
  /// the per-run counters either way.
  void begin_run(std::size_t n, Algorithm algorithm);

  /// The level tables the run writes into; valid after begin_run().
  detail::LevelTables& tables() noexcept { return *tables_; }

  bool slab_done(std::size_t d1) const noexcept {
    return slab_done_[d1] != 0;
  }

  /// Commits slab d1: its table rows are final and a future run may skip
  /// it.  Thread-safe against concurrent commits from other slabs.
  void commit_slab(std::size_t d1);

  /// Counts a slab skipped because an earlier run already committed it.
  /// Thread-safe.
  void note_skipped_slab();

  /// Test seam, process-wide: when set, commit_slab() calls
  /// hook(*this, committed) after the commit, on the thread that ran the
  /// slab, where `committed` is slabs_completed() right after the
  /// commit.  A hook that blocks parks that thread between slabs -- it
  /// claims no new slab until the hook returns -- so a test can hold a
  /// solve at a known amount of committed progress.  No library code
  /// installs one; nullptr (the default) removes it.
  using SlabCommitHook = void (*)(const SolveCheckpoint& checkpoint,
                                  std::size_t committed);
  static void set_slab_commit_hook(SlabCommitHook hook) noexcept;

  std::size_t slabs_total() const noexcept { return slab_done_.size(); }
  std::size_t slabs_completed() const noexcept { return committed_; }
  /// True once at least one slab is committed -- the threshold for a
  /// checkpoint being worth storing.
  bool has_progress() const noexcept { return slabs_completed() > 0; }

  /// Slabs executed / skipped by the most recent run (begin_run resets).
  std::size_t last_run_slabs_executed() const noexcept {
    return last_run_executed_;
  }
  std::size_t last_run_slabs_skipped() const noexcept {
    return last_run_skipped_;
  }
  /// True when the most recent begin_run() found matching stored
  /// progress to resume from (even if zero slabs had completed).
  bool last_run_resumed() const noexcept { return last_run_resumed_; }

  /// Bytes held by the stored tables + flags (what a store budget
  /// meters).
  std::size_t resident_bytes() const noexcept;

 private:
  std::shared_ptr<detail::LevelTables> tables_;
  std::vector<std::uint8_t> slab_done_;
  std::atomic<std::size_t> committed_{0};  ///< slabs with slab_done_ set
  /// Shape of the stored progress; a mismatch on begin_run() resets.
  /// ADMV* and ADMV tables have the same shape: only algorithm_ keeps one
  /// algorithm's slabs out of the other's solve.
  std::size_t n_ = 0;
  Algorithm algorithm_{};
  bool valid_ = false;

  std::atomic<std::size_t> last_run_executed_{0};
  std::atomic<std::size_t> last_run_skipped_{0};
  bool last_run_resumed_ = false;
};

}  // namespace chainckpt::core
