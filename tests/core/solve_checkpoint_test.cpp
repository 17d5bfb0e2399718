// Interrupt/resume battery for core::SolveCheckpoint: interrupt the
// multi-level DPs at every cooperative checkpoint (a fabricated
// CancelToken tripping at poll k, for all k), resume on the retained
// checkpoint, and require the final plan, objective, and scan counters to
// be bit-identical to an uninterrupted solve -- and the counters to match
// the loops walked in scan_counts.hpp -- while re-executing only
// the slabs the interrupted run did not finish (the paper's bounded
// re-execution claim, applied to the solver itself).
#include "core/solve_checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstddef>
#include <optional>

#include "../../bench/bench_common.hpp"
#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "core/cancellation.hpp"
#include "core/optimizer.hpp"
#include "platform/registry.hpp"
#include "scan_counts.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

OptimizationResult solve_plain(Algorithm algorithm,
                               const chain::TaskChain& chain,
                               const platform::CostModel& costs) {
  DpContext ctx(chain, costs);
  return optimize(algorithm, ctx);
}

void expect_same_scan(const ScanStats& a, const ScanStats& b) {
  EXPECT_EQ(a.dense_cells, b.dense_cells);
  EXPECT_EQ(a.cells_scanned, b.cells_scanned);
  EXPECT_EQ(a.steps, b.steps);
}

/// Interrupts one solve at poll k, resumes it on the same checkpoint, and
/// checks the resumed result against `baseline`.  Returns the slabs
/// committed when the trip fired, or nullopt when the run at k completed
/// without interrupting (k is past the solve's last poll -- the sweep's
/// termination signal).
std::optional<std::size_t> interrupt_and_resume(
    Algorithm algorithm, const chain::TaskChain& chain,
    const platform::CostModel& costs, std::int64_t k,
    const OptimizationResult& baseline) {
  const std::size_t n = chain.size();
  SolveCheckpoint ckpt;
  bool interrupted = false;
  {
    DpContext ctx(chain, costs);
    CancelToken token;
    token.trip_after_polls(k);
    ctx.set_cancel_token(&token);
    ctx.set_checkpoint(&ckpt);
    try {
      const OptimizationResult result = optimize(algorithm, ctx);
      // Completed in one go; the checkpoint must not have perturbed it.
      EXPECT_EQ(result.expected_makespan, baseline.expected_makespan);
      EXPECT_EQ(result.plan, baseline.plan);
    } catch (const SolveInterrupted&) {
      interrupted = true;
    }
  }
  if (!interrupted) return std::nullopt;

  // A trip at the entry poll fires before the driver initializes the
  // checkpoint; the rerun then starts fresh rather than resuming.
  const bool initialized = ckpt.slabs_total() > 0;
  const std::size_t done_at_interrupt = ckpt.slabs_completed();
  DpContext ctx(chain, costs);
  ctx.set_checkpoint(&ckpt);
  const OptimizationResult resumed = optimize(algorithm, ctx);

  EXPECT_EQ(resumed.expected_makespan, baseline.expected_makespan)
      << "k=" << k;
  EXPECT_EQ(resumed.plan, baseline.plan) << "k=" << k;
  expect_same_scan(resumed.scan, baseline.scan);
  expect_same_scan(resumed.scan, walked_scan_stats(algorithm, resumed.plan));
  // Bounded re-execution: the resume skipped exactly the committed slabs
  // and ran only the unfinished ones.
  EXPECT_EQ(ckpt.last_run_resumed(), initialized);
  EXPECT_EQ(ckpt.last_run_slabs_skipped(), done_at_interrupt) << "k=" << k;
  EXPECT_EQ(ckpt.last_run_slabs_executed(), n - done_at_interrupt)
      << "k=" << k;
  EXPECT_EQ(ckpt.slabs_completed(), n);
  return done_at_interrupt;
}

/// Sweeps the trip point over the whole solve in `stride` steps.  Serial
/// execution (set_parallelism(1)) makes poll k a deterministic (d1, j)
/// slab-frontier boundary, so the sweep hits every boundary when
/// stride == 1.  Returns how many trips landed after all n slabs had
/// committed, i.e. in plan extraction's recompute.
std::size_t sweep_interrupts(Algorithm algorithm,
                             const chain::TaskChain& chain,
                             const platform::CostModel& costs,
                             std::int64_t stride) {
  const OptimizationResult baseline = solve_plain(algorithm, chain, costs);
  std::size_t interrupted_runs = 0;
  std::size_t late_runs = 0;
  for (std::int64_t k = 0;; k += stride) {
    const std::optional<std::size_t> done =
        interrupt_and_resume(algorithm, chain, costs, k, baseline);
    if (!done) break;
    ++interrupted_runs;
    if (*done == chain.size()) ++late_runs;
    if (::testing::Test::HasFailure()) return late_runs;
  }
  // The sweep must actually have exercised interruption, including at
  // least one mid-DP point (k = 0 interrupts at the entry poll).
  EXPECT_GE(interrupted_runs, 2u);
  return late_runs;
}

class SerialGuard {
 public:
  SerialGuard() { util::set_parallelism(1); }
  ~SerialGuard() { util::set_parallelism(0); }
};

TEST(SolveCheckpoint, AdmvStarEveryBoundaryBitIdentical) {
  const SerialGuard serial;
  const platform::CostModel costs{platform::hera()};
  // Plan extraction polls once per recomputed E_verif scan, so a deadline
  // also bounds it: some trips land after every slab has committed, and
  // their resume skips all n slabs.
  EXPECT_GE(sweep_interrupts(Algorithm::kADMVstar,
                             chain::make_uniform(32, 25000.0), costs, 1),
            1u);
}

TEST(SolveCheckpoint, AdmvEveryBoundaryBitIdentical) {
  const SerialGuard serial;
  const platform::CostModel costs{platform::atlas()};
  // ADMV at n = 32 is O(n^6) per resume, so the tier-1 sweep strides the
  // boundaries; the slow battery below walks them densely at n = 100.
  sweep_interrupts(Algorithm::kADMV, chain::make_highlow(32, 25000.0),
                   costs, 17);
}

TEST(SolveCheckpoint, ParallelInterruptsResumeBitIdentical) {
  // Same property with the worker pool live: the trip lands on an
  // arbitrary worker mid-slab-wave, which is exactly the service's
  // preemption shape.
  const platform::CostModel costs{platform::hera()};
  const auto chain = chain::make_uniform(48, 25000.0);
  const OptimizationResult baseline =
      solve_plain(Algorithm::kADMVstar, chain, costs);
  for (std::int64_t k : {1, 97, 400, 900}) {
    interrupt_and_resume(Algorithm::kADMVstar, chain, costs, k, baseline);
  }
}

TEST(SolveCheckpoint, RandomPlatformPropertySweep) {
  const SerialGuard serial;
  util::Xoshiro256 rng(bench::kBenchSeed);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 32;
    const platform::Platform p = bench::random_platform(rng);
    const platform::CostModel costs =
        bench::random_per_position_costs(p, n, rng);
    const auto chain = chain::make_uniform(n, 20000.0 + 500.0 * trial);
    const Algorithm algorithm =
        trial % 2 == 0 ? Algorithm::kADMVstar : Algorithm::kADMV;
    const OptimizationResult baseline = solve_plain(algorithm, chain, costs);
    // Three interrupt points spread over the n(n+1)/2 slab steps.
    const std::int64_t total =
        static_cast<std::int64_t>(n * (n + 1) / 2);
    for (const std::int64_t k : {total / 5, total / 2, (4 * total) / 5}) {
      interrupt_and_resume(algorithm, chain, costs, k, baseline);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(SolveCheckpoint, RandomPlatformN100) {
  const SerialGuard serial;
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x100);
  const std::size_t n = 100;
  const platform::Platform p = bench::random_platform(rng);
  const platform::CostModel costs{p};
  const auto chain = chain::make_uniform(n, 25000.0);
  const OptimizationResult baseline =
      solve_plain(Algorithm::kADMVstar, chain, costs);
  const std::int64_t total = static_cast<std::int64_t>(n * (n + 1) / 2);
  for (const std::int64_t k :
       {std::int64_t{1}, total / 3, (2 * total) / 3}) {
    interrupt_and_resume(Algorithm::kADMVstar, chain, costs, k, baseline);
  }
}

// ADMV at n = 100 is seconds per full solve; the dense boundary walk only
// runs with the deep batteries (CHAINCKPT_SLOW_TESTS=1, ctest label
// `slow`/`stress` lanes of CI).
TEST(SolveCheckpoint, SlowAdmvN100RandomPlatform) {
  if (std::getenv("CHAINCKPT_SLOW_TESTS") == nullptr) {
    GTEST_SKIP() << "ADMV n=100 interrupt battery; set "
                    "CHAINCKPT_SLOW_TESTS=1";
  }
  const SerialGuard serial;
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x64);
  const std::size_t n = 100;
  const platform::Platform p = bench::random_platform(rng);
  const platform::CostModel costs =
      bench::random_per_position_costs(p, n, rng);
  const auto chain = chain::make_uniform(n, 25000.0);
  const OptimizationResult baseline =
      solve_plain(Algorithm::kADMV, chain, costs);
  const std::int64_t total = static_cast<std::int64_t>(n * (n + 1) / 2);
  for (const std::int64_t k : {std::int64_t{1}, total / 4, total / 2,
                               (3 * total) / 4, total - 1}) {
    interrupt_and_resume(Algorithm::kADMV, chain, costs, k, baseline);
  }
}

TEST(SolveCheckpoint, ShapeMismatchResetsInsteadOfCorrupting) {
  const SerialGuard serial;
  const platform::CostModel costs{platform::hera()};
  const auto chain32 = chain::make_uniform(32, 25000.0);
  // Interrupts ADMV* at n = 32, then runs `algorithm` on `chain` with the
  // same checkpoint: the run must discard the stored progress, not
  // resume into another solve's tables.
  const auto expect_reset = [&](Algorithm algorithm,
                                const chain::TaskChain& chain) {
    SolveCheckpoint ckpt;
    {
      DpContext ctx(chain32, costs);
      CancelToken token;
      token.trip_after_polls(200);
      ctx.set_cancel_token(&token);
      ctx.set_checkpoint(&ckpt);
      EXPECT_THROW(optimize(Algorithm::kADMVstar, ctx), SolveInterrupted);
    }
    ASSERT_TRUE(ckpt.has_progress());
    DpContext ctx(chain, costs);
    ctx.set_checkpoint(&ckpt);
    const OptimizationResult result = optimize(algorithm, ctx);
    EXPECT_FALSE(ckpt.last_run_resumed());
    EXPECT_EQ(ckpt.last_run_slabs_skipped(), 0u);
    const OptimizationResult fresh = solve_plain(algorithm, chain, costs);
    EXPECT_EQ(result.expected_makespan, fresh.expected_makespan);
    EXPECT_EQ(result.plan, fresh.plan);
  };
  // A different chain length.
  expect_reset(Algorithm::kADMVstar, chain::make_uniform(20, 25000.0));
  // ADMV on the same chain: ADMV* and ADMV tables have the same shape, so
  // only the algorithm keeps ADMV*'s slabs out of the ADMV solve.
  expect_reset(Algorithm::kADMV, chain32);
}

TEST(SolveCheckpoint, BatchSolverRetainsAndResumesInterruptedJob) {
  const SerialGuard serial;  // deterministic slab progress at the trip
  const std::size_t n = 80;
  const BatchJob job{Algorithm::kADMVstar, chain::make_uniform(n, 25000.0),
                     platform::CostModel{platform::hera()}};
  // Plan cache off: every solve below runs the DP, and only the table
  // pair and the checkpoint count against the budget.
  BatchOptions options;
  options.enable_plan_cache = false;
  BatchSolver fresh_solver(options);
  const OptimizationResult expected = fresh_solver.solve_job(job);
  const std::size_t table_bytes = fresh_solver.stats_snapshot().budgeted_bytes;

  BatchSolver solver(options);
  CancelToken token;
  // Deep into the n(n+1)/2 steps, so slabs have certainly committed.
  token.trip_after_polls(static_cast<std::int64_t>(n * (n + 1) / 2) * 3 / 4);
  EXPECT_THROW(solver.solve_job(job, &token), SolveInterrupted);
  BatchStats stats = solver.stats_snapshot();
  EXPECT_EQ(stats.jobs_interrupted, 1u);
  EXPECT_EQ(stats.checkpoints_saved, 1u);
  EXPECT_GT(stats.budgeted_bytes, table_bytes);
  // The retained checkpoint is O(n^2): E_mem, E_disk and their argmins,
  // 12 bytes per (d1, m2) cell.  The E_verif rows are recomputed at plan
  // extraction, never stored.
  EXPECT_LE(stats.budgeted_bytes - table_bytes, 16 * (n + 1) * (n + 1));

  // Resubmission of the identical workload resumes and matches bitwise.
  const OptimizationResult resumed = solver.solve_job(job);
  EXPECT_EQ(resumed.expected_makespan, expected.expected_makespan);
  EXPECT_EQ(resumed.plan, expected.plan);
  stats = solver.stats_snapshot();
  EXPECT_EQ(stats.checkpoints_resumed, 1u);
  EXPECT_GT(stats.checkpoint_slabs_skipped, 0u);
  // Consumed on success: nothing left to resume (or meter).
  EXPECT_EQ(stats.budgeted_bytes, table_bytes);

  // A third, identical solve starts from scratch and still matches.
  const OptimizationResult again = solver.solve_job(job);
  EXPECT_EQ(again.expected_makespan, expected.expected_makespan);
  stats = solver.stats_snapshot();
  EXPECT_EQ(stats.checkpoints_resumed, 1u);
}

TEST(SolveCheckpoint, BatchSolverNeverResumesAnotherAlgorithmsCheckpoint) {
  const SerialGuard serial;
  const auto chain = chain::make_uniform(32, 25000.0);
  const platform::CostModel costs{platform::hera()};
  const BatchJob star{Algorithm::kADMVstar, chain, costs};
  const BatchJob admv{Algorithm::kADMV, chain, costs};
  BatchOptions options;
  options.enable_plan_cache = false;
  BatchSolver solver(options);
  CancelToken token;
  token.trip_after_polls(200);
  EXPECT_THROW(solver.solve_job(star, &token), SolveInterrupted);
  ASSERT_EQ(solver.stats_snapshot().checkpoints_saved, 1u);

  // Same chain and costs, same table shapes: ADMV resumes nothing.
  const OptimizationResult result = solver.solve_job(admv);
  BatchStats stats = solver.stats_snapshot();
  EXPECT_EQ(stats.checkpoints_resumed, 0u);
  EXPECT_EQ(stats.checkpoint_slabs_skipped, 0u);
  const OptimizationResult fresh = solve_plain(Algorithm::kADMV, chain, costs);
  EXPECT_EQ(result.expected_makespan, fresh.expected_makespan);
  EXPECT_EQ(result.plan, fresh.plan);

  // The ADMV* checkpoint is still there for its own job.
  const OptimizationResult resumed = solver.solve_job(star);
  stats = solver.stats_snapshot();
  EXPECT_EQ(stats.checkpoints_resumed, 1u);
  const OptimizationResult want =
      solve_plain(Algorithm::kADMVstar, chain, costs);
  EXPECT_EQ(resumed.expected_makespan, want.expected_makespan);
  EXPECT_EQ(resumed.plan, want.plan);
}

TEST(SolveCheckpoint, CheckpointBudgetDropsOldestFirst) {
  // Two interrupted workloads over one table (they differ only in
  // checkpoint costs, which the tables never read): the LRU order is
  // table < first checkpoint < table again < second checkpoint, so a
  // budget one byte short of all three drops the first checkpoint.
  const SerialGuard serial;
  platform::Platform pricey = platform::hera();
  pricey.c_disk *= 2.0;
  pricey.r_disk *= 2.0;
  const auto chain = chain::make_uniform(48, 25000.0);
  const BatchJob older{Algorithm::kADMVstar, chain,
                       platform::CostModel{platform::hera()}};
  const BatchJob newer{Algorithm::kADMVstar, chain,
                       platform::CostModel{pricey}};
  const auto interrupt_both = [&](BatchSolver& solver) {
    for (const BatchJob* job : {&older, &newer}) {
      CancelToken token;
      token.trip_after_polls(800);
      EXPECT_THROW(solver.solve_job(*job, &token), SolveInterrupted);
      EXPECT_LE(solver.stats_snapshot().budgeted_bytes,
                solver.options().cache_budget_bytes);
    }
  };
  BatchSolver unbounded;
  interrupt_both(unbounded);
  BatchOptions options;
  options.cache_budget_bytes = unbounded.stats_snapshot().budgeted_bytes - 1;
  BatchSolver solver(options);
  interrupt_both(solver);
  const BatchStats stats = solver.stats_snapshot();
  EXPECT_EQ(stats.checkpoints_saved, 2u);
  EXPECT_EQ(stats.checkpoints_dropped, 1u);
  EXPECT_EQ(stats.tables_evicted, 0u);

  // The newer checkpoint resumes; the older one restarts from scratch.
  const OptimizationResult resumed = solver.solve_job(newer);
  EXPECT_EQ(solver.stats_snapshot().checkpoints_resumed, 1u);
  const OptimizationResult restarted = solver.solve_job(older);
  EXPECT_EQ(solver.stats_snapshot().checkpoints_resumed, 1u);
  const OptimizationResult want_newer =
      solve_plain(Algorithm::kADMVstar, chain, newer.costs);
  const OptimizationResult want_older =
      solve_plain(Algorithm::kADMVstar, chain, older.costs);
  EXPECT_EQ(resumed.expected_makespan, want_newer.expected_makespan);
  EXPECT_EQ(resumed.plan, want_newer.plan);
  EXPECT_EQ(restarted.expected_makespan, want_older.expected_makespan);
  EXPECT_EQ(restarted.plan, want_older.plan);
}

}  // namespace
}  // namespace chainckpt::core
