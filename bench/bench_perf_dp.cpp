// google-benchmark: runtime of the three dynamic programs vs chain length.
// Verifies the paper's complexity discussion (O(n^3)/O(n^4)/O(n^6)) and
// its claim that ADMV "executes within a few seconds for n = 50" -- and
// tracks the hot-path overhaul that pushes the interactive regime to
// n = 400 (ADMV*) / n = 100 (ADMV).  The `bench-json` CMake target runs this harness with
// --benchmark_format=json into BENCH_dp.json, the perf trajectory
// snapshot consumed by PERFORMANCE.md and future PRs.  All randomized
// scenarios derive from bench::kBenchSeed, so the JSON is reproducible.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "chain/patterns.hpp"
#include "core/optimizer.hpp"
#include "core/simd/simd_dispatch.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"

namespace {

using namespace chainckpt;

void run_algorithm(benchmark::State& state, core::Algorithm algorithm) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto chain = chain::make_uniform(n, 25000.0);
  const platform::CostModel costs(platform::hera());
  for (auto _ : state) {
    const auto result = core::optimize(algorithm, chain, costs);
    benchmark::DoNotOptimize(result.expected_makespan);
  }
  state.counters["n"] = static_cast<double>(n);
}

void BM_SingleLevel(benchmark::State& state) {
  run_algorithm(state, core::Algorithm::kADVstar);
}
void BM_TwoLevel(benchmark::State& state) {
  run_algorithm(state, core::Algorithm::kADMVstar);
}
void BM_Partial(benchmark::State& state) {
  run_algorithm(state, core::Algorithm::kADMV);
}

void BM_PartialSerial(benchmark::State& state) {
  util::set_parallelism(1);
  run_algorithm(state, core::Algorithm::kADMV);
  util::set_parallelism(0);
}

// ADMV* across seeded random platforms (4 per iteration), off the
// uniform-chain/Hera happy path.  bench::kBenchSeed makes the scenario
// set identical across runs.
void BM_TwoLevelRandom(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(bench::kBenchSeed);
  std::vector<std::pair<chain::TaskChain, platform::CostModel>> cases;
  for (int i = 0; i < 4; ++i) {
    auto platform = bench::random_platform(rng);
    cases.emplace_back(chain::make_random(n, 25000.0 * n, rng),
                       platform::CostModel(platform));
  }
  for (auto _ : state) {
    for (const auto& [chain, costs] : cases) {
      core::DpContext ctx(chain, costs);
      const auto result = core::optimize(core::Algorithm::kADMVstar, ctx);
      benchmark::DoNotOptimize(result.expected_makespan);
    }
  }
  state.counters["n"] = static_cast<double>(n);
}

// Forced SIMD tiers (core::simd): same inputs and bit-identical outputs
// as the rows above, timed per kernel tier so the scalar/AVX2/AVX-512
// speedup columns of PERFORMANCE.md come straight out of BENCH_dp.json.
// A tier the CPU/build cannot run is clamped by DpContext::set_simd_tier,
// so its row silently duplicates the best supported tier below it --
// compare the `simd` counter (0 scalar / 1 avx2 / 2 avx512), which
// reports the tier that actually ran.
void run_algorithm_tier(benchmark::State& state, core::Algorithm algorithm,
                        core::simd::SimdTier tier) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto chain = chain::make_uniform(n, 25000.0);
  const platform::CostModel costs(platform::hera());
  core::DpContext probe(chain, costs);
  probe.set_simd_tier(tier);
  const core::simd::SimdTier ran = probe.simd_tier();
  for (auto _ : state) {
    core::DpContext ctx(chain, costs);
    ctx.set_simd_tier(tier);
    const auto result = core::optimize(algorithm, ctx);
    benchmark::DoNotOptimize(result.expected_makespan);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["simd"] = static_cast<double>(ran);
}

void BM_TwoLevelScalar(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADMVstar,
                     core::simd::SimdTier::kScalar);
}
void BM_TwoLevelAvx2(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADMVstar,
                     core::simd::SimdTier::kAvx2);
}
void BM_TwoLevelAvx512(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADMVstar,
                     core::simd::SimdTier::kAvx512);
}
void BM_SingleLevelScalar(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADVstar,
                     core::simd::SimdTier::kScalar);
}
void BM_SingleLevelAvx2(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADVstar,
                     core::simd::SimdTier::kAvx2);
}
void BM_SingleLevelAvx512(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADVstar,
                     core::simd::SimdTier::kAvx512);
}
void BM_PartialScalar(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADMV,
                     core::simd::SimdTier::kScalar);
}
void BM_PartialAvx2(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADMV,
                     core::simd::SimdTier::kAvx2);
}
void BM_PartialAvx512(benchmark::State& state) {
  run_algorithm_tier(state, core::Algorithm::kADMV,
                     core::simd::SimdTier::kAvx512);
}

}  // namespace

// n = 800 is the largest ADV* solve of perfbench's wire_heavy workload.
BENCHMARK(BM_SingleLevel)->Arg(10)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Arg(400)->Arg(800)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TwoLevel)->Arg(10)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Arg(300)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partial)->Arg(10)->Arg(25)->Arg(50)->Arg(75)->Arg(100)
    ->Unit(benchmark::kMillisecond);
// The paper's "a few seconds for n = 50" figure was single-threaded.
BENCHMARK(BM_PartialSerial)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TwoLevelRandom)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TwoLevelScalar)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TwoLevelAvx2)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TwoLevelAvx512)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleLevelScalar)->Arg(200)->Arg(400)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleLevelAvx2)->Arg(200)->Arg(400)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleLevelAvx512)->Arg(200)->Arg(400)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PartialScalar)->Arg(50)->Arg(75)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PartialAvx2)->Arg(50)->Arg(75)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PartialAvx512)->Arg(50)->Arg(75)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
