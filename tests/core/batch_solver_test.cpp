#include "core/batch_solver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "chain/patterns.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core {
namespace {

/// A heterogeneous workload: mixed algorithms, lengths, weight patterns,
/// and platforms, with deliberate (chain, platform) repeats so the table
/// cache has something to share.  The single-level jobs carry the large n.
std::vector<BatchJob> mixed_batch() {
  std::vector<BatchJob> jobs;
  const platform::CostModel hera{platform::hera()};
  const platform::CostModel atlas{platform::atlas()};
  jobs.push_back({Algorithm::kADVstar, chain::make_uniform(400, 25000.0), hera});
  jobs.push_back({Algorithm::kAD, chain::make_uniform(400, 25000.0), hera});
  jobs.push_back({Algorithm::kADMVstar, chain::make_decrease(60, 25000.0), hera});
  jobs.push_back({Algorithm::kADMV, chain::make_highlow(30, 25000.0), atlas});
  jobs.push_back({Algorithm::kADVstar, chain::make_highlow(30, 25000.0), atlas});
  jobs.push_back({Algorithm::kADMVstar, chain::make_uniform(45, 50000.0), atlas});
  jobs.push_back({Algorithm::kPeriodic, chain::make_uniform(25, 25000.0), hera});
  jobs.push_back({Algorithm::kDaly, chain::make_uniform(25, 25000.0), hera});
  return jobs;
}

TEST(BatchSolver, MatchesPerChainOptimizeBitIdentically) {
  const auto jobs = mixed_batch();
  BatchSolver solver;
  const auto batch = solver.solve(jobs);
  ASSERT_EQ(batch.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto standalone =
        optimize(jobs[i].algorithm, jobs[i].chain, jobs[i].costs);
    EXPECT_EQ(batch[i].expected_makespan, standalone.expected_makespan)
        << "job " << i << " (" << to_string(jobs[i].algorithm) << ")";
    EXPECT_EQ(batch[i].plan, standalone.plan)
        << "job " << i << " (" << to_string(jobs[i].algorithm) << ")";
  }
}

TEST(BatchSolver, SerialAndParallelBatchesAgreeBitwise) {
  const auto jobs = mixed_batch();
  BatchSolver parallel_solver;
  BatchSolver serial_solver;
  const auto par = parallel_solver.solve(jobs);
  util::set_parallelism(1);
  const auto ser = serial_solver.solve(jobs);
  util::set_parallelism(0);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(par[i].expected_makespan, ser[i].expected_makespan) << i;
    EXPECT_EQ(par[i].plan, ser[i].plan) << i;
  }
}

TEST(BatchSolver, SharesTablesAcrossJobsAndBatches) {
  const auto jobs = mixed_batch();
  // Plan cache off: exact hits would serve the second batch without
  // touching the table cache this test pins.
  BatchOptions options;
  options.enable_plan_cache = false;
  BatchSolver solver{options};
  solver.solve(jobs);
  // 6 DP jobs over 4 distinct (chain, platform) keys.
  EXPECT_EQ(solver.stats_snapshot().tables_built, 4u);
  EXPECT_EQ(solver.stats_snapshot().tables_reused, 2u);
  // A second identical batch is served entirely from the cache.
  solver.solve(jobs);
  EXPECT_EQ(solver.stats_snapshot().tables_built, 4u);
  EXPECT_EQ(solver.stats_snapshot().tables_reused, 8u);
  EXPECT_EQ(solver.stats_snapshot().jobs_solved, 2 * jobs.size());
}

TEST(BatchSolver, ReleaseScratchThenResolveReproducesResults) {
  const auto jobs = mixed_batch();
  BatchSolver solver;
  const auto before = solver.solve(jobs);
  EXPECT_GT(solver.resident_bytes(), 0u);

  const std::size_t freed = solver.release_scratch();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(solver.stats_snapshot().released_bytes, freed);
  // The stores are empty, and they are all the solver holds.
  EXPECT_EQ(solver.resident_bytes(), 0u);

  const auto after = solver.solve(jobs);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(after[i].expected_makespan, before[i].expected_makespan) << i;
    EXPECT_EQ(after[i].plan, before[i].plan) << i;
  }
  // The re-solve rebuilt the four distinct tables from scratch.
  EXPECT_EQ(solver.stats_snapshot().tables_built, 8u);
}

TEST(BatchSolver, JobsDifferingOnlyInCheckpointCostsShareTables) {
  // The coefficient tables read weights, error rates, and guaranteed-
  // verification costs only; checkpoint/recovery costs, V and recall
  // enter per job at solve time.  A checkpoint-price sweep must therefore
  // share one table -- and still solve each job under its own cost
  // model.
  const auto chain = chain::make_uniform(30, 25000.0);
  platform::Platform pricey = platform::hera();
  pricey.c_disk *= 10.0;
  pricey.r_disk = pricey.c_disk;
  const platform::CostModel cheap_costs{platform::hera()};
  const platform::CostModel pricey_costs{pricey};
  BatchSolver solver;
  const auto results =
      solver.solve({{Algorithm::kADVstar, chain, cheap_costs},
                    {Algorithm::kADVstar, chain, pricey_costs}});
  EXPECT_EQ(solver.stats_snapshot().tables_built, 1u);
  EXPECT_EQ(solver.stats_snapshot().tables_reused, 1u);
  const auto cheap_alone = optimize(Algorithm::kADVstar, chain, cheap_costs);
  const auto pricey_alone =
      optimize(Algorithm::kADVstar, chain, pricey_costs);
  EXPECT_EQ(results[0].expected_makespan, cheap_alone.expected_makespan);
  EXPECT_EQ(results[0].plan, cheap_alone.plan);
  EXPECT_EQ(results[1].expected_makespan, pricey_alone.expected_makespan);
  EXPECT_EQ(results[1].plan, pricey_alone.plan);
  EXPECT_NE(results[0].expected_makespan, results[1].expected_makespan);

  // A V-only pair: ADMV builds its row streams (the only reader of V)
  // per solve, so the two jobs share one table entry too.
  const auto short_chain = chain::make_uniform(16, 25000.0);
  platform::Platform cheap_v = platform::hera();
  cheap_v.v_partial *= 0.25;
  const platform::CostModel cheap_v_costs{cheap_v};
  BatchSolver v_solver;
  const auto v_results =
      v_solver.solve({{Algorithm::kADMV, short_chain, cheap_costs},
                      {Algorithm::kADMV, short_chain, cheap_v_costs}});
  EXPECT_EQ(v_solver.stats_snapshot().tables_built, 1u);
  EXPECT_EQ(v_solver.stats_snapshot().tables_reused, 1u);
  const auto v_alone = optimize(Algorithm::kADMV, short_chain, cheap_costs);
  const auto cheap_v_alone =
      optimize(Algorithm::kADMV, short_chain, cheap_v_costs);
  EXPECT_EQ(v_results[0].expected_makespan, v_alone.expected_makespan);
  EXPECT_EQ(v_results[0].plan, v_alone.plan);
  EXPECT_EQ(v_results[1].expected_makespan, cheap_v_alone.expected_makespan);
  EXPECT_EQ(v_results[1].plan, cheap_v_alone.plan);
  EXPECT_NE(v_results[0].expected_makespan, v_results[1].expected_makespan);
}

TEST(BatchSolver, EmptyBatchAndEmptyChainEdgeCases) {
  BatchSolver solver;
  EXPECT_TRUE(solver.solve({}).empty());
  EXPECT_THROW(solver.solve({{Algorithm::kADVstar, chain::TaskChain{},
                              platform::CostModel{platform::hera()}}}),
               std::invalid_argument);
}

TEST(BatchSolver, BudgetDropsLeastRecentlyUsedTableFirst) {
  // Three distinct keys, then a re-touch of the first: LRU order is now
  // B < C < A.  A fourth key D then overflows a budget one byte short of
  // all four pairs, which must evict exactly B.
  const platform::CostModel costs{platform::hera()};
  const auto chain_a = chain::make_uniform(120, 25000.0);
  const auto chain_b = chain::make_uniform(100, 25000.0);
  const auto chain_c = chain::make_uniform(80, 25000.0);
  const auto chain_d = chain::make_uniform(60, 25000.0);
  const auto run = [&](BatchSolver& solver) {
    for (const auto* chain : {&chain_a, &chain_b, &chain_c, &chain_a,
                              &chain_d}) {
      solver.solve({{Algorithm::kADVstar, *chain, costs}});
      EXPECT_LE(solver.stats_snapshot().budgeted_bytes,
                solver.options().cache_budget_bytes);
    }
  };
  // Plan cache off: the re-touches must reach the table cache, and only
  // tables count against the budget.
  BatchSolver unbounded{{.enable_plan_cache = false}};
  run(unbounded);
  ASSERT_EQ(unbounded.stats_snapshot().tables_evicted, 0u);
  const std::size_t all_four = unbounded.stats_snapshot().budgeted_bytes;

  BatchSolver solver{
      {.cache_budget_bytes = all_four - 1, .enable_plan_cache = false}};
  run(solver);
  const BatchStats stats = solver.stats_snapshot();
  EXPECT_EQ(stats.tables_built, 4u);
  EXPECT_EQ(stats.tables_evicted, 1u);
  EXPECT_GT(stats.evicted_bytes, 0u);
  EXPECT_EQ(stats.budgeted_bytes, all_four - stats.evicted_bytes);

  // A and C survived (cache hits); B -- the least recently used -- must
  // rebuild.
  solver.solve({{Algorithm::kADVstar, chain_a, costs},
                {Algorithm::kADVstar, chain_c, costs}});
  EXPECT_EQ(solver.stats_snapshot().tables_built, 4u);
  solver.solve({{Algorithm::kADVstar, chain_b, costs}});
  EXPECT_EQ(solver.stats_snapshot().tables_built, 5u);
}

TEST(BatchSolver, CacheBudgetBoundsResidencyWithoutChangingResults) {
  // A budget sized for roughly one table: every insert evicts down
  // to it, results stay bit-identical to the default-budget solver.
  const platform::CostModel costs{platform::hera()};
  std::vector<BatchJob> jobs;
  for (std::size_t n : {90, 110, 130}) {
    jobs.push_back({Algorithm::kADVstar, chain::make_uniform(n, 25000.0),
                    costs});
  }
  // Plan cache off: only tables count, and the re-solve below must
  // reach the table cache.
  BatchSolver unbounded{{.enable_plan_cache = false}};
  const auto reference = unbounded.solve(jobs);
  EXPECT_EQ(unbounded.stats_snapshot().tables_evicted, 0u);
  const std::size_t one_table = unbounded.stats_snapshot().budgeted_bytes /
                                    jobs.size() +
                                1;  // avg entry, rounded up

  BatchSolver bounded{
      {.cache_budget_bytes = one_table, .enable_plan_cache = false}};
  for (int pass = 0; pass < 2; ++pass) {
    const auto results = bounded.solve(jobs);
    EXPECT_LE(bounded.stats_snapshot().budgeted_bytes, one_table);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(results[i].expected_makespan,
                reference[i].expected_makespan);
      EXPECT_EQ(results[i].plan, reference[i].plan);
    }
  }
  EXPECT_GT(bounded.stats_snapshot().tables_evicted, 0u);
  EXPECT_EQ(bounded.stats_snapshot().budgeted_bytes,
            bounded.resident_bytes());

  // A zero budget retains nothing, plans included, and changes nothing.
  BatchSolver none{{.cache_budget_bytes = 0}};
  const auto uncached = none.solve(jobs);
  EXPECT_EQ(none.stats_snapshot().budgeted_bytes, 0u);
  EXPECT_EQ(none.plan_cache_stats().evictions,
            none.plan_cache_stats().inserts);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(uncached[i].expected_makespan, reference[i].expected_makespan);
    EXPECT_EQ(uncached[i].plan, reference[i].plan);
  }
}

/// One solve_job() of a mixed-kind LRU scenario; `interrupt` trips the
/// job's cancel token mid-solve so it retains a checkpoint.
struct Step {
  BatchJob job;
  bool interrupt = false;
};

/// Runs `steps` on `solver`, checking the budget after every solve_job().
void run_steps(BatchSolver& solver, const std::vector<Step>& steps) {
  for (const Step& step : steps) {
    CancelToken token;
    token.trip_after_polls(800);
    if (step.interrupt) {
      EXPECT_THROW(solver.solve_job(step.job, &token), SolveInterrupted);
    } else {
      solver.solve_job(step.job);
    }
    EXPECT_LE(solver.stats_snapshot().budgeted_bytes,
              solver.options().cache_budget_bytes);
  }
}

/// Solves `job` on `solver` and requires the standalone result, bitwise.
void expect_resolves_bitwise(BatchSolver& solver, const BatchJob& job) {
  const OptimizationResult got = solver.solve_job(job);
  const OptimizationResult want = optimize(job.algorithm, job.chain,
                                           job.costs);
  EXPECT_EQ(got.expected_makespan, want.expected_makespan)
      << to_string(job.algorithm);
  EXPECT_EQ(got.plan, want.plan) << to_string(job.algorithm);
  EXPECT_LE(solver.stats_snapshot().budgeted_bytes,
            solver.options().cache_budget_bytes);
}

TEST(BatchSolver, OneBudgetEvictsTheOldestEntryOfAnyKind) {
  // Table pairs, retained checkpoints and plans share one LRU clock.  Each
  // scenario runs once under the default budget to measure everything it
  // inserts, then again under a budget one byte short of that: exactly
  // one entry -- the least recently used, whatever its kind -- goes at
  // the last insert.  Serial, so the interrupts commit the same slabs in
  // both runs.
  util::set_parallelism(1);
  const platform::CostModel costs{platform::hera()};
  const auto chain_a = chain::make_uniform(40, 25000.0);
  const auto chain_c = chain::make_uniform(48, 25000.0);
  const BatchJob adv_a{Algorithm::kADVstar, chain_a, costs};
  // Same table key as adv_a (the key holds no algorithm), another plan.
  const BatchJob ad_a{Algorithm::kAD, chain_a, costs};
  const BatchJob admv_c{Algorithm::kADMVstar, chain_c, costs};
  const BatchJob adv_c{Algorithm::kADVstar, chain_c, costs};
  const BatchJob adv_f{Algorithm::kADVstar, chain::make_uniform(30, 25000.0),
                       costs};
  const auto squeezed = [&](const std::vector<Step>& steps) {
    BatchSolver unbounded;
    run_steps(unbounded, steps);
    EXPECT_EQ(unbounded.stats_snapshot().tables_evicted +
                  unbounded.stats_snapshot().checkpoints_dropped +
                  unbounded.plan_cache_stats().evictions,
              0u);
    const std::size_t all = unbounded.stats_snapshot().budgeted_bytes;
    BatchOptions options;
    options.cache_budget_bytes = all - 1;
    auto solver = std::make_unique<BatchSolver>(options);
    run_steps(*solver, steps);
    return solver;
  };

  {
    // T(a) < P(a) < T(c) < K(c) < T(f) < P(f): the table goes.
    auto solver = squeezed({{adv_a}, {admv_c, true}, {adv_f}});
    const BatchStats stats = solver->stats_snapshot();
    EXPECT_EQ(stats.tables_evicted, 1u);
    EXPECT_EQ(stats.checkpoints_dropped, 0u);
    EXPECT_EQ(solver->plan_cache_stats().evictions, 0u);
    // Its plan survived; a job that needs the pair rebuilds it.
    expect_resolves_bitwise(*solver, adv_a);
    EXPECT_EQ(solver->plan_cache_stats().exact_hits, 1u);
    expect_resolves_bitwise(*solver, ad_a);
    EXPECT_EQ(solver->stats_snapshot().tables_built, stats.tables_built + 1);
  }
  {
    // T(c) < K(c) < T(a) < P(a) < T(c) touched < P(adv c) < T(f) < P(f):
    // the checkpoint goes.
    auto solver = squeezed({{admv_c, true}, {adv_a}, {adv_c}, {adv_f}});
    const BatchStats stats = solver->stats_snapshot();
    EXPECT_EQ(stats.checkpoints_dropped, 1u);
    EXPECT_EQ(stats.tables_evicted, 0u);
    EXPECT_EQ(solver->plan_cache_stats().evictions, 0u);
    // The interrupted job restarts from scratch.
    expect_resolves_bitwise(*solver, admv_c);
    EXPECT_EQ(solver->stats_snapshot().checkpoints_resumed, 0u);
  }
  {
    // T(a) < P(a) < T(a) touched < P(ad a) < T(c) < K(c) < T(f) < P(f):
    // the plan goes.
    auto solver = squeezed({{adv_a}, {ad_a}, {admv_c, true}, {adv_f}});
    const BatchStats stats = solver->stats_snapshot();
    EXPECT_EQ(solver->plan_cache_stats().evictions, 1u);
    EXPECT_EQ(stats.tables_evicted, 0u);
    EXPECT_EQ(stats.checkpoints_dropped, 0u);
    // The job re-solves on its surviving table.
    expect_resolves_bitwise(*solver, adv_a);
    EXPECT_EQ(solver->plan_cache_stats().exact_hits, 0u);
    EXPECT_EQ(solver->stats_snapshot().tables_reused, stats.tables_reused + 1);
  }
  util::set_parallelism(0);
}

TEST(BatchSolver, SolveJobMatchesBatchAndStandaloneBitwise) {
  const auto jobs = mixed_batch();
  BatchSolver batch_solver;
  const auto batch = batch_solver.solve(jobs);
  BatchSolver job_solver;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto result = job_solver.solve_job(jobs[i]);
    EXPECT_EQ(result.expected_makespan, batch[i].expected_makespan) << i;
    EXPECT_EQ(result.plan, batch[i].plan) << i;
  }
  EXPECT_EQ(job_solver.stats_snapshot().jobs_solved, jobs.size());
  // Same cache behaviour as the batch path: 4 distinct DP keys.
  EXPECT_EQ(job_solver.stats_snapshot().tables_built,
            batch_solver.stats_snapshot().tables_built);
}

TEST(BatchSolver, ConcurrentSolveJobsBuildSharedTablesOnce) {
  // Many threads hammer the same key: the build must happen exactly once
  // (the rest wait), and every result matches the standalone solve.
  const auto chain = chain::make_uniform(60, 25000.0);
  const platform::CostModel costs{platform::hera()};
  const BatchJob job{Algorithm::kADMVstar, chain, costs};
  const auto reference = optimize(job.algorithm, job.chain, job.costs);
  // Exercise the raw table-share path: with the plan cache on, whichever
  // thread finishes first would serve the rest without touching tables.
  BatchOptions options;
  options.enable_plan_cache = false;
  BatchSolver solver{options};
  constexpr std::size_t kThreads = 8;
  std::vector<OptimizationResult> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = solver.solve_job(job); });
  }
  for (auto& thread : threads) thread.join();
  const BatchStats stats = solver.stats_snapshot();
  EXPECT_EQ(stats.tables_built, 1u);
  EXPECT_EQ(stats.tables_reused, kThreads - 1);
  EXPECT_EQ(stats.jobs_solved, kThreads);
  for (const auto& result : results) {
    EXPECT_EQ(result.expected_makespan, reference.expected_makespan);
    EXPECT_EQ(result.plan, reference.plan);
  }
}

TEST(BatchSolver, ThreadCountDoesNotChangeResults) {
  // The mixed batch plus ADV*, ADMV* and ADMV jobs sharing table keys, so
  // concurrent jobs race for the same builds.  Results and the table
  // counters depend only on the set of distinct keys, not the schedule.
  auto jobs = mixed_batch();
  const platform::CostModel hera{platform::hera()};
  const platform::CostModel atlas{platform::atlas()};
  for (const auto& chain :
       {chain::make_uniform(24, 25000.0), chain::make_decrease(20, 25000.0)}) {
    for (const auto& costs : {hera, atlas}) {
      for (const Algorithm algorithm :
           {Algorithm::kADVstar, Algorithm::kADMVstar, Algorithm::kADMV}) {
        jobs.push_back({algorithm, chain, costs});
      }
    }
  }
  std::vector<OptimizationResult> baseline;
  BatchStats baseline_stats;
  for (int threads : {1, 4, 8}) {
    util::set_parallelism(threads);
    BatchSolver solver;
    const auto results = solver.solve(jobs);
    util::set_parallelism(0);
    const BatchStats stats = solver.stats_snapshot();
    if (baseline.empty()) {
      baseline = results;
      baseline_stats = stats;
      // 6 + 12 DP jobs over 4 + 4 distinct keys.
      EXPECT_EQ(stats.tables_built, 8u);
      EXPECT_EQ(stats.tables_reused, 10u);
      continue;
    }
    EXPECT_EQ(stats.tables_built, baseline_stats.tables_built)
        << "threads=" << threads;
    EXPECT_EQ(stats.tables_reused, baseline_stats.tables_reused)
        << "threads=" << threads;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(results[i].expected_makespan, baseline[i].expected_makespan)
          << "threads=" << threads << " job=" << i;
      EXPECT_EQ(results[i].plan, baseline[i].plan)
          << "threads=" << threads << " job=" << i;
    }
  }
}

TEST(BatchSolver, RetainedCheckpointResumesOnlyItsExactWorkload) {
  // The table key omits inputs the committed slabs read (E_mem reads C_M,
  // the kernels' left context R_D and R_M, ADMV also V and the recall).
  // A job differing only there must start fresh, not resume the
  // interrupted job's slabs.  Serial, plan cache off: every solve reaches
  // the DP.
  util::set_parallelism(1);
  BatchOptions options;
  options.enable_plan_cache = false;
  const auto check = [&](Algorithm algorithm, std::size_t n,
                         std::int64_t trip, const platform::Platform& other) {
    const auto chain = chain::make_uniform(n, 25000.0);
    const BatchJob job{algorithm, chain, platform::CostModel{platform::hera()}};
    const BatchJob drifted{algorithm, chain, platform::CostModel{other}};
    BatchSolver solver{options};
    CancelToken token;
    token.trip_after_polls(trip);
    EXPECT_THROW(solver.solve_job(job, &token), SolveInterrupted);
    ASSERT_EQ(solver.stats_snapshot().checkpoints_saved, 1u);

    const OptimizationResult got = solver.solve_job(drifted);
    const OptimizationResult want =
        optimize(algorithm, drifted.chain, drifted.costs);
    EXPECT_EQ(solver.stats_snapshot().checkpoints_resumed, 0u);
    EXPECT_EQ(got.expected_makespan, want.expected_makespan)
        << to_string(algorithm);
    EXPECT_EQ(got.plan, want.plan) << to_string(algorithm);

    // The interrupted workload itself still resumes, bitwise.
    const OptimizationResult resumed = solver.solve_job(job);
    const OptimizationResult reference =
        optimize(algorithm, job.chain, job.costs);
    EXPECT_EQ(solver.stats_snapshot().checkpoints_resumed, 1u);
    EXPECT_EQ(resumed.expected_makespan, reference.expected_makespan);
    EXPECT_EQ(resumed.plan, reference.plan);
  };
  platform::Platform pricey = platform::hera();
  pricey.c_disk *= 2.0;
  pricey.r_disk *= 2.0;
  pricey.c_mem *= 3.0;
  pricey.r_mem *= 3.0;
  check(Algorithm::kADMVstar, 120, 4800, pricey);
  check(Algorithm::kADMV, 40, 600, pricey);
  // V and the recall are outside the table key; ADMV's slabs read both.
  platform::Platform weak_v = platform::hera();
  weak_v.v_partial *= 0.5;
  weak_v.recall = 0.6;
  check(Algorithm::kADMV, 40, 600, weak_v);
  util::set_parallelism(0);
}

TEST(BatchSolver, InterruptedSolveKeepsOnlyItsCheckpoint) {
  // An interrupted solve's scratch goes with it: afterwards the solver
  // holds only its budgeted stores, and the interrupt added exactly one
  // retained checkpoint to them.  Plan cache off: the second submission
  // must actually run (and be interrupted in) the DP, not return the
  // memoized first result.
  BatchOptions options;
  options.enable_plan_cache = false;
  BatchSolver solver{options};
  const BatchJob job{Algorithm::kADMVstar, chain::make_uniform(120, 25000.0),
                     platform::CostModel{platform::hera()}};
  ASSERT_NO_THROW(solver.solve_job(job));  // caches the job's table
  const std::size_t table_bytes = solver.stats_snapshot().budgeted_bytes;

  CancelToken token;
  token.trip_after_polls(3000);  // mid-solve (n(n+1)/2 = 7260 steps)
  EXPECT_THROW(solver.solve_job(job, &token), SolveInterrupted);
  const BatchStats stats = solver.stats_snapshot();
  EXPECT_EQ(stats.jobs_interrupted, 1u);
  EXPECT_EQ(stats.checkpoints_saved, 1u);
  SolveCheckpoint same_shape;
  same_shape.begin_run(job.chain.size(), job.algorithm);
  EXPECT_EQ(stats.budgeted_bytes, table_bytes + same_shape.resident_bytes());
  EXPECT_EQ(solver.resident_bytes(), stats.budgeted_bytes);

  // The retry resumes the retained checkpoint and reproduces the
  // undisturbed result bitwise.
  const OptimizationResult resumed = solver.solve_job(job);
  EXPECT_EQ(solver.stats_snapshot().checkpoints_resumed, 1u);
  BatchSolver fresh;
  const OptimizationResult reference = fresh.solve_job(job);
  EXPECT_EQ(resumed.expected_makespan, reference.expected_makespan);
  EXPECT_EQ(resumed.plan, reference.plan);
}

/// Releases completed by ReleaseScratchDuringSolvesKeepsResultsBitwise's
/// second thread; its slab-commit hook parks a solve until one more lands.
std::atomic<std::size_t> g_releases{0};

void wait_for_a_release(const SolveCheckpoint& /*checkpoint*/,
                        std::size_t committed) {
  if (committed != 1) return;
  const std::size_t seen = g_releases.load();
  while (g_releases.load() == seen) std::this_thread::yield();
}

TEST(BatchSolver, ReleaseScratchDuringSolvesKeepsResultsBitwise) {
  // release_scratch() drops only the stores, and a running solve holds
  // its own table reference, checkpoint and scratch, so the release may
  // overlap solves.  A second thread releases in a loop while the mixed
  // batch runs twice (the second pass races plan-cache hits against the
  // clears).  Each multi-level solve parks at its first slab commit until
  // another release has completed, so releases land mid-solve on any
  // machine and at any speed.
  const auto jobs = mixed_batch();
  BatchSolver solver;
  std::atomic<bool> done{false};
  std::thread releaser([&] {
    while (!done.load()) {
      solver.release_scratch();
      g_releases.fetch_add(1);
      std::this_thread::yield();
    }
  });
  SolveCheckpoint::set_slab_commit_hook(&wait_for_a_release);
  std::vector<std::vector<OptimizationResult>> passes;
  try {
    for (int pass = 0; pass < 2; ++pass) passes.push_back(solver.solve(jobs));
  } catch (const std::exception& e) {
    ADD_FAILURE() << "solve threw: " << e.what();
  }
  SolveCheckpoint::set_slab_commit_hook(nullptr);
  done.store(true);
  releaser.join();
  ASSERT_EQ(passes.size(), 2u);

  EXPECT_GT(g_releases.load(), 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto standalone =
        optimize(jobs[i].algorithm, jobs[i].chain, jobs[i].costs);
    for (const auto& results : passes) {
      EXPECT_EQ(results[i].expected_makespan, standalone.expected_makespan)
          << "job " << i << " (" << to_string(jobs[i].algorithm) << ")";
      EXPECT_EQ(results[i].plan, standalone.plan)
          << "job " << i << " (" << to_string(jobs[i].algorithm) << ")";
    }
  }
}

TEST(BatchSolverPlanCache, CountersReconcileAcrossHitMissAndEpsilon) {
  BatchOptions options;
  options.plan_cache_epsilon = 0.05;
  BatchSolver solver{options};
  platform::Platform base = platform::hera();
  base.lambda_f *= 25.0;
  base.lambda_s *= 25.0;
  const BatchJob job{Algorithm::kADMVstar, chain::make_uniform(14, 25000.0),
                     platform::CostModel{base}};
  const OptimizationResult first = solver.solve_job(job);   // miss + insert
  const OptimizationResult second = solver.solve_job(job);  // exact hit
  EXPECT_EQ(first.plan, second.plan);
  EXPECT_EQ(first.expected_makespan, second.expected_makespan);

  platform::Platform drifted = base;
  drifted.lambda_s *= 1.01;  // inside the radii: epsilon-hit
  BatchJob near = job;
  near.costs = platform::CostModel{drifted};
  const OptimizationResult served = solver.solve_job(near);

  platform::Platform wild = base;
  wild.lambda_s *= 4.0;  // far beyond: certificate rejection + re-solve
  BatchJob far = job;
  far.costs = platform::CostModel{wild};
  solver.solve_job(far);

  const PlanCacheStats cache = solver.plan_cache_stats();
  EXPECT_EQ(cache.lookups, 4u);
  EXPECT_EQ(cache.exact_hits, 1u);
  EXPECT_EQ(cache.epsilon_hits, 1u);
  EXPECT_EQ(cache.cert_rejections, 1u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.exact_hits + cache.epsilon_hits + cache.cert_rejections +
                cache.misses,
            cache.lookups);
  EXPECT_EQ(cache.inserts, 2u);  // the miss and the rejected re-solve
  EXPECT_EQ(solver.stats_snapshot().warm_bound_violations, 0u);

  // The epsilon-served objective honors the tolerance against a fresh
  // cache-free solve of the drifted model.
  BatchOptions cold_options;
  cold_options.enable_plan_cache = false;
  BatchSolver cold{cold_options};
  const OptimizationResult fresh = cold.solve_job(near);
  EXPECT_LE(served.expected_makespan,
            (1.0 + 0.05) * fresh.expected_makespan * (1.0 + 1e-12));

  // Batch solve() runs through the same front door: a repeated pass is
  // served entirely by exact hits, bitwise.
  const std::vector<BatchJob> batch = mixed_batch();
  BatchSolver repeat;
  const auto first_pass = repeat.solve(batch);
  const auto second_pass = repeat.solve(batch);
  std::size_t dp_jobs = 0;
  for (const BatchJob& job : batch) {
    if (job.algorithm != Algorithm::kPeriodic &&
        job.algorithm != Algorithm::kDaly) {
      ++dp_jobs;
    }
  }
  const PlanCacheStats repeat_cache = repeat.plan_cache_stats();
  EXPECT_EQ(repeat_cache.exact_hits, dp_jobs);
  EXPECT_EQ(repeat_cache.inserts, dp_jobs);
  EXPECT_EQ(repeat_cache.lookups, 2 * dp_jobs);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(std::memcmp(&first_pass[i].expected_makespan,
                          &second_pass[i].expected_makespan, sizeof(double)),
              0)
        << i;
    EXPECT_EQ(first_pass[i].plan, second_pass[i].plan) << i;
  }
}

TEST(BatchSolverPlanCache, BudgetEvictsLruAndEvictedJobsResolveBitwise) {
  const platform::CostModel hera{platform::hera()};
  std::vector<BatchJob> jobs;
  for (std::size_t n = 10; n < 20; ++n) {
    jobs.push_back(
        {Algorithm::kADVstar, chain::make_uniform(n, 25000.0), hera});
  }
  BatchSolver unbounded;
  std::vector<OptimizationResult> first;
  for (const BatchJob& job : jobs) first.push_back(unbounded.solve_job(job));
  ASSERT_EQ(unbounded.plan_cache_stats().evictions, 0u);
  const std::size_t resident = unbounded.stats_snapshot().budgeted_bytes;

  // A third of those bytes: LRU entries -- plans and tables alike --
  // go, the rest stay, and every result is the unbounded one.
  const std::size_t budget = resident / 3;
  BatchSolver solver{{.cache_budget_bytes = budget}};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const OptimizationResult result = solver.solve_job(jobs[i]);
    EXPECT_EQ(result.expected_makespan, first[i].expected_makespan)
        << "job " << i;
    EXPECT_EQ(result.plan, first[i].plan) << "job " << i;
    EXPECT_LE(solver.stats_snapshot().budgeted_bytes, budget);
  }
  const PlanCacheStats cache = solver.plan_cache_stats();
  EXPECT_GT(cache.evictions, 0u);
  EXPECT_GT(cache.evicted_bytes, 0u);
  EXPECT_LT(cache.inserts - cache.evictions, jobs.size());

  // The newest plan stayed; the oldest went.
  solver.solve_job(jobs.back());
  EXPECT_EQ(solver.plan_cache_stats().exact_hits, 1u);
  // Evicted jobs re-solve bitwise-identically (and re-populate the
  // cache under the budget).
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const OptimizationResult again = solver.solve_job(jobs[i]);
    if (i == 0) {
      EXPECT_EQ(solver.plan_cache_stats().exact_hits, 1u);  // evicted
    }
    EXPECT_EQ(again.expected_makespan, first[i].expected_makespan)
        << "job " << i;
    EXPECT_EQ(again.plan, first[i].plan) << "job " << i;
  }
  EXPECT_LE(solver.stats_snapshot().budgeted_bytes, budget);
  EXPECT_EQ(solver.stats_snapshot().warm_bound_violations, 0u);
}

TEST(BatchSolverPlanCache, ThreadCountDoesNotChangeServedResults) {
  // The cache front door must be invariant to DP parallelism: the same
  // submission sequence classifies and serves identically at any thread
  // count, because keys and results are bitwise-deterministic.
  platform::Platform base = platform::hera();
  base.lambda_f *= 25.0;
  base.lambda_s *= 25.0;
  platform::Platform drifted = base;
  drifted.lambda_s *= 1.01;
  const auto sequence = [&](BatchSolver& solver,
                            std::vector<OptimizationResult>* out) {
    BatchJob job{Algorithm::kADMVstar, chain::make_uniform(40, 25000.0),
                 platform::CostModel{base}};
    job.cache_epsilon = 0.05;
    out->push_back(solver.solve_job(job));
    out->push_back(solver.solve_job(job));
    job.costs = platform::CostModel{drifted};
    out->push_back(solver.solve_job(job));
  };
  std::vector<OptimizationResult> baseline;
  {
    util::set_parallelism(1);
    BatchSolver solver;
    sequence(solver, &baseline);
  }
  std::vector<OptimizationResult> wide;
  PlanCacheStats wide_stats;
  {
    util::set_parallelism(7);
    BatchSolver solver;
    sequence(solver, &wide);
    wide_stats = solver.plan_cache_stats();
  }
  util::set_parallelism(0);
  ASSERT_EQ(baseline.size(), wide.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(wide[i].expected_makespan, baseline[i].expected_makespan)
        << "step " << i;
    EXPECT_EQ(wide[i].plan, baseline[i].plan) << "step " << i;
  }
  EXPECT_EQ(wide_stats.exact_hits, 1u);
  EXPECT_EQ(wide_stats.epsilon_hits, 1u);
}

TEST(BatchSolverPlanCache, ResumedSolvePopulatesTheCacheIdentically) {
  // An interrupted solve retains a checkpoint; the retry resumes it and
  // its result lands in the plan cache exactly as a cold solve's would:
  // the follow-up submission exact-hits bitwise.
  util::set_parallelism(1);
  BatchSolver solver;
  const BatchJob job{Algorithm::kADMVstar, chain::make_uniform(120, 25000.0),
                     platform::CostModel{platform::hera()}};
  CancelToken token;
  token.trip_after_polls(3000);
  EXPECT_THROW(solver.solve_job(job, &token), SolveInterrupted);
  // The interrupted attempt counted a lookup (miss) but inserted nothing.
  EXPECT_EQ(solver.plan_cache_stats().inserts, 0u);

  const OptimizationResult resumed = solver.solve_job(job);
  const BatchStats stats = solver.stats_snapshot();
  EXPECT_EQ(stats.checkpoints_resumed, 1u);
  EXPECT_EQ(solver.plan_cache_stats().inserts, 1u);

  const OptimizationResult hit = solver.solve_job(job);
  EXPECT_EQ(hit.expected_makespan, resumed.expected_makespan);
  EXPECT_EQ(hit.plan, resumed.plan);
  EXPECT_EQ(solver.plan_cache_stats().exact_hits, 1u);

  // And the resumed result is bitwise what a never-interrupted solver
  // computes.
  BatchSolver fresh;
  const OptimizationResult reference = fresh.solve_job(job);
  EXPECT_EQ(resumed.expected_makespan, reference.expected_makespan);
  EXPECT_EQ(resumed.plan, reference.plan);
  util::set_parallelism(0);
}

}  // namespace
}  // namespace chainckpt::core
