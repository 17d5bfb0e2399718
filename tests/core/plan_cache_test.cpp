// Oracle-backed validity battery for core::PlanCache.
//
// Every claim the cache makes is checked against a fresh DP solve of the
// same request:
//   * exact hits are bitwise-identical to the fresh result,
//   * epsilon-hits land within (1 + epsilon) of the FRESH optimum (the
//     certificate bound is on the unknown optimum, not the stale score),
//   * certificate rejections carry a warm upper bound the fresh optimum
//     respects,
// and the adversarial sweep drives drifts INSIDE the advisory
// first-order radii until the optimal plan actually changes, asserting
// the certificate stays conservative exactly where the advisory screen
// is blind.
#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

platform::Platform scaled_hera() {
  platform::Platform p = platform::hera();
  p.lambda_f *= 25.0;
  p.lambda_s *= 25.0;
  return p;
}

platform::CostModel costs_for(const platform::Platform& p,
                              bool weibull = false) {
  platform::CostModel costs(p);
  if (weibull) {
    costs.set_planning_law({platform::FailureLaw::kWeibull, 0.7});
  }
  return costs;
}

OptimizationResult fresh_solve(Algorithm algorithm,
                               const chain::TaskChain& chain,
                               const platform::CostModel& costs) {
  return optimize(algorithm, chain, costs);
}

TEST(PlanCache, ExactHitIsBitwiseIdenticalToTheFreshSolve) {
  const auto chain = chain::make_uniform(14, 25000.0);
  const auto costs = costs_for(scaled_hera());
  PlanCache cache;
  const OptimizationResult first =
      fresh_solve(Algorithm::kADMVstar, chain, costs);
  cache.insert(Algorithm::kADMVstar, chain, costs, first);

  const CacheLookup hit =
      cache.lookup(Algorithm::kADMVstar, chain, costs, 0.0);
  ASSERT_EQ(hit.outcome, CacheOutcome::kExactHit);
  const OptimizationResult again =
      fresh_solve(Algorithm::kADMVstar, chain, costs);
  EXPECT_TRUE(hit.result.plan == again.plan);
  EXPECT_TRUE(same_bits(hit.result.expected_makespan,
                        again.expected_makespan));
}

TEST(PlanCache, ExactHitKeysTheFullReadSetOfTheAlgorithm) {
  const auto chain = chain::make_uniform(12, 25000.0);
  const platform::Platform base = scaled_hera();
  PlanCache cache;
  for (const Algorithm algorithm :
       {Algorithm::kADVstar, Algorithm::kADMVstar, Algorithm::kADMV}) {
    cache.insert(algorithm, chain, costs_for(base),
                 fresh_solve(algorithm, chain, costs_for(base)));
  }

  // vp/recall are read ONLY by kADMV: the other engines must exact-hit
  // across a vp drift, kADMV must not.
  platform::Platform vp_drift = base;
  vp_drift.v_partial *= 1.5;
  vp_drift.recall = 0.6;
  const auto drifted = costs_for(vp_drift);
  EXPECT_EQ(cache.lookup(Algorithm::kADVstar, chain, drifted, 0.0).outcome,
            CacheOutcome::kExactHit);
  EXPECT_EQ(cache.lookup(Algorithm::kADMVstar, chain, drifted, 0.0).outcome,
            CacheOutcome::kExactHit);
  EXPECT_NE(cache.lookup(Algorithm::kADMV, chain, drifted, 0.0).outcome,
            CacheOutcome::kExactHit);

  // A rate drift misses the exact key for every algorithm.
  platform::Platform rate_drift = base;
  rate_drift.lambda_s *= 1.01;
  EXPECT_NE(cache
                .lookup(Algorithm::kADVstar, chain, costs_for(rate_drift),
                        0.0)
                .outcome,
            CacheOutcome::kExactHit);
}

TEST(PlanCache, EpsilonHitIsWithinEpsilonOfTheFreshOptimum) {
  const auto chain = chain::make_uniform(14, 25000.0);
  const platform::Platform base = scaled_hera();
  PlanCache cache;
  cache.insert(Algorithm::kADMVstar, chain, costs_for(base),
               fresh_solve(Algorithm::kADMVstar, chain, costs_for(base)));

  // Small upward rate drift: inside the radii, gamma bound applies.
  platform::Platform drifted = base;
  drifted.lambda_f *= 1.01;
  drifted.lambda_s *= 1.01;
  const auto request = costs_for(drifted);
  const double epsilon = 0.05;
  const CacheLookup lookup =
      cache.lookup(Algorithm::kADMVstar, chain, request, epsilon);
  ASSERT_EQ(lookup.outcome, CacheOutcome::kEpsilonHit);
  EXPECT_LE(lookup.error_bound, epsilon);

  const OptimizationResult fresh =
      fresh_solve(Algorithm::kADMVstar, chain, request);
  // The certificate's lower bound must be sound...
  EXPECT_GE(fresh.expected_makespan,
            lookup.lower_bound * (1.0 - 1e-12));
  // ...so the served score is within (1 + epsilon) of the true optimum.
  EXPECT_LE(lookup.result.expected_makespan,
            (1.0 + epsilon) * fresh.expected_makespan * (1.0 + 1e-12));
  // And the served score is the honest evaluator expectation under the
  // REQUESTED model for the cached plan -- an upper bound on the optimum.
  EXPECT_GE(lookup.result.expected_makespan,
            fresh.expected_makespan * (1.0 - 1e-12));
}

TEST(PlanCache, RejectionCarriesASoundWarmBoundAndTheResolveMatches) {
  const auto chain = chain::make_uniform(14, 25000.0);
  const platform::Platform base = scaled_hera();
  PlanCache cache;
  cache.insert(Algorithm::kADVstar, chain, costs_for(base),
               fresh_solve(Algorithm::kADVstar, chain, costs_for(base)));

  // A 3x rate jump is far beyond every advisory radius.
  platform::Platform drifted = base;
  drifted.lambda_s *= 3.0;
  const auto request = costs_for(drifted);
  const CacheLookup lookup =
      cache.lookup(Algorithm::kADVstar, chain, request, 0.05);
  ASSERT_EQ(lookup.outcome, CacheOutcome::kCertRejected);
  ASSERT_TRUE(lookup.has_warm_bound);

  const OptimizationResult fresh =
      fresh_solve(Algorithm::kADVstar, chain, request);
  // Any plan's evaluator score bounds the optimum from above.
  EXPECT_GE(lookup.warm_upper_bound,
            fresh.expected_makespan * (1.0 - 1e-12));

  // After the re-solve is inserted, the same request exact-hits and is
  // bitwise-stable.
  cache.insert(Algorithm::kADVstar, chain, request, fresh);
  const CacheLookup hit =
      cache.lookup(Algorithm::kADVstar, chain, request, 0.05);
  ASSERT_EQ(hit.outcome, CacheOutcome::kExactHit);
  EXPECT_TRUE(hit.result.plan == fresh.plan);
  EXPECT_TRUE(
      same_bits(hit.result.expected_makespan, fresh.expected_makespan));
}

TEST(PlanCache, EpsilonZeroRestrictsServingToExactHits) {
  const auto chain = chain::make_uniform(12, 25000.0);
  const platform::Platform base = scaled_hera();
  PlanCache cache;
  cache.insert(Algorithm::kADMVstar, chain, costs_for(base),
               fresh_solve(Algorithm::kADMVstar, chain, costs_for(base)));
  platform::Platform drifted = base;
  drifted.lambda_s *= 1.005;
  const CacheLookup lookup =
      cache.lookup(Algorithm::kADMVstar, chain, costs_for(drifted), 0.0);
  EXPECT_EQ(lookup.outcome, CacheOutcome::kCertRejected);
  EXPECT_TRUE(lookup.has_warm_bound);
}

TEST(PlanCache, UnknownShapeIsAMiss) {
  const auto chain = chain::make_uniform(12, 25000.0);
  const auto other = chain::make_uniform(13, 25000.0);
  const auto costs = costs_for(scaled_hera());
  PlanCache cache;
  cache.insert(Algorithm::kADVstar, chain, costs,
               fresh_solve(Algorithm::kADVstar, chain, costs));
  EXPECT_EQ(cache.lookup(Algorithm::kADVstar, other, costs, 0.5).outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.lookup(Algorithm::kADMVstar, chain, costs, 0.5).outcome,
            CacheOutcome::kMiss);
}

TEST(PlanCache, LawChangeNeverServesACachedPlan) {
  const auto chain = chain::make_uniform(12, 25000.0);
  const platform::Platform base = scaled_hera();
  PlanCache cache;
  cache.insert(Algorithm::kADMVstar, chain, costs_for(base),
               fresh_solve(Algorithm::kADMVstar, chain, costs_for(base)));
  const CacheLookup lookup = cache.lookup(
      Algorithm::kADMVstar, chain, costs_for(base, /*weibull=*/true), 0.5);
  EXPECT_EQ(lookup.outcome, CacheOutcome::kCertRejected);
}

TEST(PlanCache, WeibullEpsilonHitSurvivesTheOracle) {
  const auto chain = chain::make_uniform(12, 25000.0);
  const platform::Platform base = scaled_hera();
  PlanCache cache;
  const auto base_costs = costs_for(base, /*weibull=*/true);
  cache.insert(Algorithm::kADMVstar, chain, base_costs,
               fresh_solve(Algorithm::kADMVstar, chain, base_costs));
  // The lambda_s radius can clamp to its 0.02 floor -- stay inside it.
  platform::Platform drifted = base;
  drifted.lambda_f *= 1.01;
  drifted.lambda_s *= 1.012;
  const auto request = costs_for(drifted, /*weibull=*/true);
  const double epsilon = 0.05;
  const CacheLookup lookup =
      cache.lookup(Algorithm::kADMVstar, chain, request, epsilon);
  ASSERT_EQ(lookup.outcome, CacheOutcome::kEpsilonHit);
  const OptimizationResult fresh =
      fresh_solve(Algorithm::kADMVstar, chain, request);
  EXPECT_GE(fresh.expected_makespan, lookup.lower_bound * (1.0 - 1e-12));
  EXPECT_LE(lookup.result.expected_makespan,
            (1.0 + epsilon) * fresh.expected_makespan * (1.0 + 1e-12));
}

TEST(PlanCache, AdversarialDriftInsideTheRadiiStaysConservative) {
  // The advisory radii promise "roughly no placement moves" -- but plan
  // flips CAN happen inside them at quantization boundaries.  Sweep fine
  // upward rate drifts, find flips the radii missed, and assert the
  // certificate never over-promises there: every served epsilon-hit is
  // still within (1 + epsilon) of the fresh optimum.
  // A fixed drift rarely crosses a quantization boundary from one base
  // model, so sweep the BASE rate scale instead: each base gets a small
  // in-radius drift, and somewhere along the sweep the drifted optimum
  // snaps to a different plan.
  const auto chain = chain::make_uniform(16, 25000.0);
  const double epsilon = 0.10;
  std::size_t flips_inside_radius = 0;
  std::size_t served = 0;
  for (int step = 0; step < 48; ++step) {
    platform::Platform base = platform::hera();
    const double scale = 8.0 + 0.75 * step;  // rate scales 8x .. 43x
    base.lambda_f *= scale;
    base.lambda_s *= scale;
    PlanCache cache;
    const OptimizationResult cached =
        fresh_solve(Algorithm::kADVstar, chain, costs_for(base));
    cache.insert(Algorithm::kADVstar, chain, costs_for(base), cached);

    platform::Platform drifted = base;
    drifted.lambda_s *= 1.015;  // inside even the 0.02 radius floor
    drifted.lambda_f *= 1.010;
    const auto request = costs_for(drifted);
    const CacheLookup lookup =
        cache.lookup(Algorithm::kADVstar, chain, request, epsilon);
    ASSERT_NE(lookup.outcome, CacheOutcome::kMiss) << "scale " << scale;
    const OptimizationResult fresh =
        fresh_solve(Algorithm::kADVstar, chain, request);
    const bool plan_changed = !(fresh.plan == cached.plan);
    if (lookup.outcome == CacheOutcome::kEpsilonHit) {
      ++served;
      if (plan_changed) ++flips_inside_radius;
      // Conservative even when the cached plan is no longer optimal.
      EXPECT_GE(fresh.expected_makespan,
                lookup.lower_bound * (1.0 - 1e-12))
          << "scale " << scale;
      EXPECT_LE(lookup.result.expected_makespan,
                (1.0 + epsilon) * fresh.expected_makespan * (1.0 + 1e-12))
          << "scale " << scale;
    } else {
      // Rejections must hand the re-solve a sound warm bound.
      ASSERT_TRUE(lookup.has_warm_bound) << "scale " << scale;
      EXPECT_GE(lookup.warm_upper_bound,
                fresh.expected_makespan * (1.0 - 1e-12))
          << "scale " << scale;
    }
  }
  // The sweep must actually exercise both the serve path and at least
  // one plan flip the advisory screen did not catch -- otherwise the
  // adversarial claim is vacuous.
  EXPECT_GT(served, 0u);
  EXPECT_GT(flips_inside_radius, 0u);
}

TEST(PlanCache, SeededRandomDriftsPartitionAndSurviveTheOracle) {
  const auto chain = chain::make_uniform(12, 25000.0);
  const platform::Platform base = scaled_hera();
  PlanCache cache;
  cache.insert(Algorithm::kADVstar, chain, costs_for(base),
               fresh_solve(Algorithm::kADVstar, chain, costs_for(base)));
  util::Xoshiro256 rng = util::Xoshiro256::stream(0xC0FFEE, 0);
  const double epsilon = 0.05;
  for (int trial = 0; trial < 40; ++trial) {
    platform::Platform drifted = base;
    const auto jitter = [&rng] {
      return std::exp((2.0 * rng.uniform01() - 1.0) * 0.08);
    };
    drifted.lambda_f *= jitter();
    drifted.lambda_s *= jitter();
    drifted.c_disk *= jitter();
    drifted.c_mem *= jitter();
    drifted.v_guaranteed *= jitter();
    const auto request = costs_for(drifted);
    const CacheLookup lookup =
        cache.lookup(Algorithm::kADVstar, chain, request, epsilon);
    ASSERT_NE(lookup.outcome, CacheOutcome::kMiss);
    const OptimizationResult fresh =
        fresh_solve(Algorithm::kADVstar, chain, request);
    if (lookup.outcome == CacheOutcome::kEpsilonHit) {
      EXPECT_LE(lookup.result.expected_makespan,
                (1.0 + epsilon) * fresh.expected_makespan * (1.0 + 1e-12))
          << "trial " << trial;
    } else if (lookup.outcome == CacheOutcome::kExactHit) {
      EXPECT_TRUE(same_bits(lookup.result.expected_makespan,
                            fresh.expected_makespan));
    } else {
      EXPECT_GE(lookup.warm_upper_bound,
                fresh.expected_makespan * (1.0 - 1e-12))
          << "trial " << trial;
    }
  }
  const PlanCacheStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.lookups, 40u);
  EXPECT_EQ(stats.exact_hits + stats.epsilon_hits + stats.cert_rejections +
                stats.misses,
            stats.lookups);
}

TEST(PlanCache, LruEvictionByBytesKeepsTheHotEntry) {
  // Plans are bounded by their BatchSolver's one budget, in one LRU order
  // with its tables.
  const auto costs = costs_for(scaled_hera());
  std::vector<BatchJob> jobs;
  for (std::size_t n = 10; n < 18; ++n) {
    jobs.push_back({Algorithm::kADVstar, chain::make_uniform(n, 25000.0),
                    costs});
  }
  const BatchJob big{Algorithm::kADVstar, chain::make_uniform(120, 25000.0),
                     costs};
  BatchSolver small_probe;
  for (const BatchJob& job : jobs) small_probe.solve_job(job);
  const std::size_t small = small_probe.stats_snapshot().budgeted_bytes;
  BatchSolver big_probe;
  big_probe.solve_job(big);
  const std::size_t budget =
      big_probe.stats_snapshot().budgeted_bytes + small / 4;

  BatchSolver solver{{.cache_budget_bytes = budget}};
  for (const BatchJob& job : jobs) solver.solve_job(job);
  ASSERT_EQ(solver.plan_cache_stats().inserts, jobs.size());
  ASSERT_EQ(solver.plan_cache_stats().evictions, 0u);

  // Touch the FIRST plan so it is the most recently used...
  solver.solve_job(jobs[0]);
  ASSERT_EQ(solver.plan_cache_stats().exact_hits, 1u);
  // ...then squeeze the small jobs' entries to roughly a quarter of their
  // bytes.
  solver.solve_job(big);
  EXPECT_LE(solver.stats_snapshot().budgeted_bytes, budget);
  const PlanCacheStats stats = solver.plan_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.evicted_bytes, 0u);
  // The freshly touched entry survived; the oldest untouched did not.
  solver.solve_job(jobs[0]);
  EXPECT_EQ(solver.plan_cache_stats().exact_hits, 2u);
  solver.solve_job(jobs[1]);
  EXPECT_EQ(solver.plan_cache_stats().exact_hits, 2u);
  EXPECT_EQ(solver.plan_cache_stats().misses, jobs.size() + 2);
}

TEST(PlanCache, EvictThenResolveIsBitwiseStable) {
  const auto chain = chain::make_uniform(14, 25000.0);
  const auto costs = costs_for(scaled_hera());
  PlanCache cache;
  const OptimizationResult first =
      fresh_solve(Algorithm::kADMVstar, chain, costs);
  cache.insert(Algorithm::kADMVstar, chain, costs, first);
  EXPECT_GT(cache.clear(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(Algorithm::kADMVstar, chain, costs, 0.0).outcome,
            CacheOutcome::kMiss);
  const OptimizationResult again =
      fresh_solve(Algorithm::kADMVstar, chain, costs);
  EXPECT_TRUE(first.plan == again.plan);
  EXPECT_TRUE(
      same_bits(first.expected_makespan, again.expected_makespan));
  cache.insert(Algorithm::kADMVstar, chain, costs, again);
  const CacheLookup hit =
      cache.lookup(Algorithm::kADMVstar, chain, costs, 0.0);
  ASSERT_EQ(hit.outcome, CacheOutcome::kExactHit);
  EXPECT_TRUE(
      same_bits(hit.result.expected_makespan, first.expected_makespan));
}

TEST(PlanCache, ProbableHitAgreesWithLookupOnExactKeys) {
  const auto chain = chain::make_uniform(12, 25000.0);
  const platform::Platform base = scaled_hera();
  const auto costs = costs_for(base);
  PlanCache cache;
  EXPECT_FALSE(cache.probable_hit(Algorithm::kADVstar, chain, costs, 0.0));
  cache.insert(Algorithm::kADVstar, chain, costs,
               fresh_solve(Algorithm::kADVstar, chain, costs));
  EXPECT_TRUE(cache.probable_hit(Algorithm::kADVstar, chain, costs, 0.0));
  // The probe must not move counters or LRU state.
  EXPECT_EQ(cache.stats_snapshot().lookups, 0u);
  // Far-out drift: not probable under any epsilon.
  platform::Platform wild = base;
  wild.lambda_s *= 5.0;
  EXPECT_FALSE(
      cache.probable_hit(Algorithm::kADVstar, chain, costs_for(wild), 0.5));
}

TEST(PlanCache, ResidentBytesMatchTheHeapItHolds) {
  // mallinfo2 sees only glibc's own allocator, which the sanitizer
  // runtimes replace.
#if defined(__GLIBC__) &&                                              \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33)) &&    \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // The paper grid's ADV* and ADMV* plans (n = 1..50 x Table I x three
  // weight patterns): the budget only bounds memory if resident_bytes()
  // counts what the inserts actually keep on the heap.
  struct Request {
    Algorithm algorithm;
    chain::TaskChain chain;
    platform::CostModel costs;
    OptimizationResult result;
  };
  std::vector<Request> requests;
  for (const platform::Platform& p : platform::table1_platforms()) {
    for (const chain::Pattern pattern :
         {chain::Pattern::kUniform, chain::Pattern::kDecrease,
          chain::Pattern::kHighLow}) {
      for (std::size_t n = 1; n <= 50; ++n) {
        for (const Algorithm algorithm :
             {Algorithm::kADVstar, Algorithm::kADMVstar}) {
          requests.push_back({algorithm,
                              chain::make_pattern(pattern, n, 25000.0),
                              platform::CostModel{p}, {}});
        }
      }
    }
  }
  util::parallel_for(0, requests.size(), [&](std::size_t i) {
    Request& r = requests[i];
    r.result = fresh_solve(r.algorithm, r.chain, r.costs);
  });

  PlanCache cache;
  const std::size_t before = mallinfo2().uordblks;
  for (const Request& r : requests) {
    cache.insert(r.algorithm, r.chain, r.costs, r.result);
  }
  const double grown = static_cast<double>(mallinfo2().uordblks - before);
  const double resident = static_cast<double>(cache.resident_bytes());
  EXPECT_GT(cache.size(), 1000u);
  EXPECT_NEAR(resident, grown, 0.10 * grown)
      << "resident_bytes() " << resident / (1024.0 * 1024.0)
      << " MiB vs heap growth " << grown / (1024.0 * 1024.0) << " MiB";
#else
  GTEST_SKIP() << "heap growth is measured through glibc's mallinfo2, "
                  "which a sanitizer build does not feed";
#endif
}

}  // namespace
}  // namespace chainckpt::core
