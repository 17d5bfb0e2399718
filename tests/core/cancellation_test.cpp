#include "core/cancellation.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "core/optimizer.hpp"
#include "core/solve_checkpoint.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"

namespace chainckpt::core {
namespace {

using std::chrono::milliseconds;

TEST(CancelToken, PollThrowsAfterCancelRequest) {
  CancelToken token;
  EXPECT_NO_THROW(token.poll());
  EXPECT_NO_THROW(token.poll_now());
  token.request_cancel();
  EXPECT_TRUE(token.cancel_requested());
  try {
    token.poll();
    FAIL() << "poll() must throw after request_cancel()";
  } catch (const SolveInterrupted& interrupted) {
    EXPECT_EQ(interrupted.reason(), InterruptReason::kCancelled);
  }
}

TEST(CancelToken, PollNowFiresOnExpiredDeadline) {
  CancelToken token;
  token.set_deadline(CancelToken::Clock::now() - milliseconds(1));
  EXPECT_TRUE(token.deadline_passed());
  try {
    token.poll_now();
    FAIL() << "poll_now() must throw past the deadline";
  } catch (const SolveInterrupted& interrupted) {
    EXPECT_EQ(interrupted.reason(), InterruptReason::kDeadline);
  }
  // A future deadline does not fire.
  CancelToken patient;
  patient.set_deadline(CancelToken::Clock::now() + std::chrono::hours(1));
  EXPECT_NO_THROW(patient.poll_now());
}

/// Every DP driver honors a token that fired before the solve started:
/// the entry checkpoint aborts before any table work.
TEST(Cancellation, PreCancelledTokenStopsEveryDp) {
  const auto chain = chain::make_uniform(40, 25000.0);
  const platform::CostModel costs{platform::hera()};
  for (const Algorithm algorithm :
       {Algorithm::kAD, Algorithm::kADVstar, Algorithm::kADMVstar,
        Algorithm::kADMV}) {
    DpContext ctx(chain, costs);
    CancelToken token;
    token.request_cancel();
    ctx.set_cancel_token(&token);
    EXPECT_THROW(optimize(algorithm, ctx), SolveInterrupted)
        << to_string(algorithm);
  }
}

/// A null token (the default) changes nothing: results stay bit-identical
/// to a context that never heard of cancellation.
TEST(Cancellation, UnfiredTokenLeavesResultsBitIdentical) {
  const auto chain = chain::make_highlow(60, 50000.0);
  const platform::CostModel costs{platform::atlas()};
  const auto reference = optimize(Algorithm::kADMVstar, chain, costs);
  DpContext ctx(chain, costs);
  CancelToken token;
  token.set_deadline(CancelToken::Clock::now() + std::chrono::hours(1));
  ctx.set_cancel_token(&token);
  const auto watched = optimize(Algorithm::kADMVstar, ctx);
  EXPECT_EQ(watched.expected_makespan, reference.expected_makespan);
  EXPECT_EQ(watched.plan, reference.plan);
}

/// Fires `fire(token)` when a level-DP solve commits its first slab,
/// through core::SolveCheckpoint's slab-commit seam: the interrupt then
/// lands mid-solve, with every other slab still to run, on any machine
/// and at any speed.  Installed for the object's lifetime; one at a time.
class InterruptAtFirstSlab {
 public:
  using Fire = void (*)(CancelToken& token);

  InterruptAtFirstSlab(CancelToken& token, Fire fire) {
    state().token = &token;
    state().fire = fire;
    SolveCheckpoint::set_slab_commit_hook(&InterruptAtFirstSlab::hook);
  }
  ~InterruptAtFirstSlab() { SolveCheckpoint::set_slab_commit_hook(nullptr); }
  InterruptAtFirstSlab(const InterruptAtFirstSlab&) = delete;
  InterruptAtFirstSlab& operator=(const InterruptAtFirstSlab&) = delete;

 private:
  struct State {
    CancelToken* token = nullptr;
    Fire fire = nullptr;
  };
  static State& state() {
    static State s;
    return s;
  }
  static void hook(const SolveCheckpoint& /*checkpoint*/,
                   std::size_t committed) {
    if (committed == 1) state().fire(*state().token);
  }
};

/// Cancellation mid-solve: the token fires when the two-level DP commits
/// its first of n = 160 slabs, and the solve unwinds at a checkpoint.
/// The scratch the solve lent its slabs goes with it (the ASan CI job
/// turns this into a leak check), and a fresh solve on the same inputs
/// reproduces the reference bitwise.
TEST(Cancellation, MidSolveCancelStaysReproducible) {
  const auto chain = chain::make_uniform(160, 25000.0);
  const platform::CostModel costs{platform::hera()};
  DpContext ctx(chain, costs);
  CancelToken token;
  ctx.set_cancel_token(&token);
  {
    const InterruptAtFirstSlab interrupt(
        token, [](CancelToken& t) { t.request_cancel(); });
    try {
      optimize(Algorithm::kADMVstar, ctx);
      FAIL() << "the solve finished although its token was cancelled at "
                "the first slab commit";
    } catch (const SolveInterrupted& interrupted) {
      EXPECT_EQ(interrupted.reason(), InterruptReason::kCancelled);
    }
  }

  // The interruption poisoned nothing: re-solving reproduces a clean
  // context's result bit for bit (smaller n keeps the re-check cheap).
  const auto small = chain::make_uniform(80, 25000.0);
  const auto reference = optimize(Algorithm::kADMVstar, small, costs);
  DpContext clean(small, costs);
  CancelToken reused;  // unfired
  clean.set_cancel_token(&reused);
  const auto again = optimize(Algorithm::kADMVstar, clean);
  EXPECT_EQ(again.expected_makespan, reference.expected_makespan);
  EXPECT_EQ(again.plan, reference.plan);
}

/// Deadline expiry mid-solve through the strided clock checks: the
/// deadline moves into the past when the first of n = 160 slabs commits.
TEST(Cancellation, MidSolveDeadlineExpires) {
  const auto chain = chain::make_uniform(160, 25000.0);
  const platform::CostModel costs{platform::hera()};
  DpContext ctx(chain, costs);
  CancelToken token;
  token.set_deadline(CancelToken::Clock::now() + std::chrono::hours(1));
  ctx.set_cancel_token(&token);
  const InterruptAtFirstSlab interrupt(token, [](CancelToken& t) {
    t.set_deadline(CancelToken::Clock::now() - milliseconds(1));
  });
  try {
    optimize(Algorithm::kADMVstar, ctx);
    FAIL() << "the solve finished although its deadline expired at the "
              "first slab commit";
  } catch (const SolveInterrupted& interrupted) {
    EXPECT_EQ(interrupted.reason(), InterruptReason::kDeadline);
  }
}

/// BatchSolver::solve_job propagates the interruption and counts it.
TEST(Cancellation, SolveJobCountsInterruptions) {
  BatchSolver solver;
  CancelToken token;
  token.request_cancel();
  const BatchJob job{Algorithm::kADVstar, chain::make_uniform(50, 25000.0),
                     platform::CostModel{platform::hera()}};
  EXPECT_THROW(solver.solve_job(job, &token), SolveInterrupted);
  EXPECT_EQ(solver.stats_snapshot().jobs_interrupted, 1u);
  EXPECT_EQ(solver.stats_snapshot().jobs_solved, 0u);
  // The cached tables survive the interruption: the retry reuses them
  // and matches a standalone solve exactly.
  const auto result = solver.solve_job(job);
  EXPECT_EQ(solver.stats_snapshot().tables_reused, 1u);
  const auto standalone = optimize(job.algorithm, job.chain, job.costs);
  EXPECT_EQ(result.expected_makespan, standalone.expected_makespan);
  EXPECT_EQ(result.plan, standalone.plan);
}

TEST(CancelToken, PreemptFlagThrowsAndClears) {
  CancelToken token;
  token.request_preempt();
  EXPECT_TRUE(token.preempt_requested());
  try {
    token.poll();
    FAIL() << "poll() must throw on a preempt request";
  } catch (const SolveInterrupted& interrupted) {
    EXPECT_EQ(interrupted.reason(), InterruptReason::kPreempted);
  }
  EXPECT_THROW(token.poll_now(), SolveInterrupted);
  // Unlike cancel, preemption is clearable: the scheduler reruns the job
  // on the same token.
  token.clear_preempt();
  EXPECT_FALSE(token.preempt_requested());
  EXPECT_NO_THROW(token.poll());
  // Cancel outranks preempt when both are set.
  token.request_preempt();
  token.request_cancel();
  try {
    token.poll();
    FAIL() << "poll() must throw";
  } catch (const SolveInterrupted& interrupted) {
    EXPECT_EQ(interrupted.reason(), InterruptReason::kCancelled);
  }
}

TEST(CancelToken, TripFiresAtTheExactPoll) {
  CancelToken token;
  token.trip_after_polls(3);
  EXPECT_NO_THROW(token.poll());  // 3 left
  EXPECT_NO_THROW(token.poll());  // 2
  EXPECT_NO_THROW(token.poll());  // 1
  EXPECT_THROW(token.poll(), SolveInterrupted);
  // The trip latches the cancel flag, so every later poll throws too.
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_THROW(token.poll(), SolveInterrupted);
}

}  // namespace
}  // namespace chainckpt::core
