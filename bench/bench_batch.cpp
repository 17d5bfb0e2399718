// google-benchmark: throughput of core::BatchSolver on a mixed multi-chain
// workload, in chains/sec, against solving the same jobs through
// standalone core::optimize() calls in a plain loop.  The
// `bench-batch-json` CMake target runs this harness into BENCH_batch.json,
// the batch-throughput snapshot consumed by PERFORMANCE.md and future PRs.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"

namespace {

using namespace chainckpt;

/// `copies` waves of a mixed request: four platforms x three patterns of
/// single-level jobs (the high-n regime a service would meet) plus a pair
/// of two-level jobs.  Chains repeat across waves, which is exactly the
/// traffic shape the SegmentTables cache exploits.
std::vector<core::BatchJob> mixed_workload(std::size_t copies) {
  std::vector<core::BatchJob> jobs;
  const auto platforms = platform::table1_platforms();
  for (std::size_t c = 0; c < copies; ++c) {
    for (const auto& p : platforms) {
      const platform::CostModel costs{p};
      jobs.push_back(
          {core::Algorithm::kADVstar, chain::make_uniform(200, 25000.0), costs});
      jobs.push_back(
          {core::Algorithm::kAD, chain::make_decrease(200, 25000.0), costs});
      jobs.push_back(
          {core::Algorithm::kADVstar, chain::make_highlow(100, 50000.0), costs});
    }
    const platform::CostModel hera{platform::hera()};
    jobs.push_back(
        {core::Algorithm::kADMVstar, chain::make_uniform(60, 25000.0), hera});
    jobs.push_back(
        {core::Algorithm::kADMV, chain::make_uniform(30, 25000.0), hera});
  }
  return jobs;
}

void BM_BatchMixed(benchmark::State& state) {
  const auto jobs = mixed_workload(static_cast<std::size_t>(state.range(0)));
  // Plan cache off: every iteration after the first would be all exact
  // hits, and this bench times the solves.
  core::BatchOptions options;
  options.enable_plan_cache = false;
  core::BatchSolver solver{options};
  for (auto _ : state) {
    const auto results = solver.solve(jobs);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
  state.counters["chains"] = static_cast<double>(jobs.size());
  state.counters["chains_per_sec"] = benchmark::Counter(
      static_cast<double>(jobs.size()), benchmark::Counter::kIsIterationInvariantRate);
}

/// The same jobs through standalone optimize() calls: every chain rebuilds
/// its own coefficient tables and nothing load-balances.
void BM_SequentialMixed(benchmark::State& state) {
  const auto jobs = mixed_workload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& job : jobs) {
      const auto result = core::optimize(job.algorithm, job.chain, job.costs);
      benchmark::DoNotOptimize(result.expected_makespan);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
  state.counters["chains"] = static_cast<double>(jobs.size());
  state.counters["chains_per_sec"] = benchmark::Counter(
      static_cast<double>(jobs.size()), benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(BM_BatchMixed)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SequentialMixed)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
