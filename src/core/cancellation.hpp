// Cooperative cancellation and deadlines for the DP solvers.
//
// A long ADMV solve is O(n^6); a service cannot afford to let one run to
// completion after its client hung up or its deadline passed.  The
// solvers therefore accept an optional CancelToken through DpContext and
// poll it at coarse-grained checkpoints -- once per right-endpoint step of
// a slab, once per streamed row, never inside the fused inner kernels
// (whose codegen is measurably sensitive to extra call structure; see
// core/level_dp.hpp).  When the token fires, the polling worker throws
// SolveInterrupted; util::parallel_for rethrows it on the calling thread
// after the remaining workers observe the same token and unwind too.
//
// The contract is cooperative and coarse: cancellation latency is one
// checkpoint interval (microseconds for the single-level DP, up to a few
// milliseconds for a large ADMV slab step), and an interrupted solve
// produces no result -- its scratch is freed as it unwinds, and only a
// SolveCheckpoint the caller attached keeps its committed slabs.
//
// Thread-safety: request_cancel() / set_deadline() may race freely with
// polls from any number of worker threads (relaxed atomics -- a poll may
// observe the request one checkpoint late, which the latency contract
// already allows).  set_deadline() should be called before the solve
// starts.  The cancel flag and deadline are single-use per job (there is
// deliberately no reset); the PREEMPT flag is the exception -- a
// scheduler that cooperatively displaces a job intends to run it again,
// so request_preempt() is paired with clear_preempt() and the same token
// (with its original deadline) drives every attempt of the job.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace chainckpt::core {

/// Why an interrupted solve stopped.
enum class InterruptReason {
  kCancelled,  ///< CancelToken::request_cancel() was called
  kDeadline,   ///< the token's deadline passed mid-solve
  kPreempted,  ///< a scheduler displaced the job; it is expected to rerun
};

/// Thrown from a solver checkpoint when its CancelToken fires.  Escapes
/// through optimize() to the caller; core::BatchSolver::solve_job lets it
/// propagate after updating its interruption counter.
class SolveInterrupted : public std::runtime_error {
 public:
  explicit SolveInterrupted(InterruptReason reason)
      : std::runtime_error(reason == InterruptReason::kDeadline
                               ? "solve interrupted: deadline expired"
                               : reason == InterruptReason::kPreempted
                                     ? "solve interrupted: preempted"
                                     : "solve interrupted: cancelled"),
        reason_(reason) {}

  InterruptReason reason() const noexcept { return reason_; }

 private:
  InterruptReason reason_;
};

/// Shared flag + optional deadline, owned by the submitter, polled by the
/// solver.  The deadline is stored as steady-clock nanoseconds so polls
/// stay lock-free.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Cooperative displacement: the next checkpoint throws
  /// SolveInterrupted(kPreempted).  Unlike cancel, the flag is clearable
  /// (clear_preempt()) -- the scheduler reruns the job on the same token,
  /// and a checkpoint-aware solver resumes from its completed slabs (see
  /// core/solve_checkpoint.hpp).
  void request_preempt() noexcept {
    preempted_.store(true, std::memory_order_relaxed);
  }

  void clear_preempt() noexcept {
    preempted_.store(false, std::memory_order_relaxed);
  }

  void set_deadline(Clock::time_point deadline) noexcept {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// Test/chaos hook: fires the cancel flag from inside the poll after
  /// `polls` further checkpoints (0 fires on the very next poll).  Gives
  /// the interruption batteries a deterministic way to stop a solve at an
  /// exact checkpoint without racing a second thread; negative disables
  /// (the default).  Counts polls across all workers of the solve.
  void trip_after_polls(std::int64_t polls) noexcept {
    trip_remaining_.store(polls, std::memory_order_relaxed);
  }

  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool preempt_requested() const noexcept {
    return preempted_.load(std::memory_order_relaxed);
  }

  bool has_deadline() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  bool deadline_passed() const noexcept {
    const std::int64_t ns = deadline_ns_.load(std::memory_order_relaxed);
    return ns != 0 && Clock::now().time_since_epoch().count() >= ns;
  }

  /// Solver checkpoint: throws SolveInterrupted when the token fired.
  /// The cancel/preempt flags are checked on every poll (relaxed loads);
  /// the deadline clock read is strided (every 64th poll per thread) to
  /// keep checkpoints cheap enough for per-step placement.
  void poll() const {
    maybe_trip();
    if (cancel_requested()) {
      throw SolveInterrupted(InterruptReason::kCancelled);
    }
    if (preempt_requested()) {
      throw SolveInterrupted(InterruptReason::kPreempted);
    }
    if (!has_deadline()) return;
    static thread_local std::uint32_t ticker = 0;
    if ((ticker++ & 63u) == 0 && deadline_passed()) {
      throw SolveInterrupted(InterruptReason::kDeadline);
    }
  }

  /// Unstrided checkpoint for solve entry and other coarse placements:
  /// always reads the clock when a deadline is set, so an already-expired
  /// deadline fires before any DP work starts.
  void poll_now() const {
    maybe_trip();
    if (cancel_requested()) {
      throw SolveInterrupted(InterruptReason::kCancelled);
    }
    if (preempt_requested()) {
      throw SolveInterrupted(InterruptReason::kPreempted);
    }
    if (deadline_passed()) {
      throw SolveInterrupted(InterruptReason::kDeadline);
    }
  }

 private:
  /// Counts down the trip hook; sticks the cancel flag when it reaches
  /// zero so every worker of the solve unwinds, not just the poller that
  /// hit the boundary.  One relaxed load on the untripped fast path.
  void maybe_trip() const noexcept {
    if (trip_remaining_.load(std::memory_order_relaxed) < 0) return;
    if (trip_remaining_.fetch_sub(1, std::memory_order_relaxed) == 0) {
      cancelled_.store(true, std::memory_order_relaxed);
    }
  }

  /// `mutable`: poll() is const for the solvers, but the trip hook counts
  /// down inside it and latches the cancel flag when it fires.
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<bool> preempted_{false};
  /// Deadline as steady-clock nanoseconds since the clock epoch; 0 means
  /// no deadline (the epoch itself is unreachable for a running process).
  std::atomic<std::int64_t> deadline_ns_{0};
  /// Test/chaos poll-trip countdown; negative = disabled.
  mutable std::atomic<std::int64_t> trip_remaining_{-1};
};

/// Null-tolerant checkpoint used by the DP drivers: a solve without a
/// token pays one predictable branch per checkpoint.
inline void poll_cancellation(const CancelToken* token) {
  if (token != nullptr) token->poll();
}

}  // namespace chainckpt::core
