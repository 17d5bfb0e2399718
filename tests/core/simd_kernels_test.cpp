// Scalar-vs-SIMD bitwise equivalence battery for the argmin kernel layer
// (core/simd): the vector tiers promise bitwise-identical folds --
// values, argmins, leftmost tie-breaks -- to the scalar reference, on
// every window shape and on coefficient streams fabricated to be dense
// with exact ties.  On top of the unit kernels, the end-to-end sweeps
// re-solve the level DPs under every supported tier (Table I platforms
// plus seeded random platforms) and require identical objectives, plans,
// and scan counters.  Tiers the CPU/build cannot run are skipped, never
// faked: the dispatch tests pin that clamping instead.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "../../bench/bench_common.hpp"
#include "chain/patterns.hpp"
#include "core/dp_single_level.hpp"
#include "core/dp_two_level.hpp"
#include "core/optimizer.hpp"
#include "core/simd/argmin_kernels.hpp"
#include "core/simd/simd_dispatch.hpp"
#include "platform/registry.hpp"
#include "scan_counts.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

using simd::SimdTier;

std::vector<SimdTier> supported_tiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (simd::tier_supported(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
  if (simd::tier_supported(SimdTier::kAvx512)) {
    tiers.push_back(SimdTier::kAvx512);
  }
  return tiers;
}

/// Runs one kernel shape through every supported tier and expects the
/// scalar (best, best_arg) bit for bit.
struct FoldResult {
  double best;
  std::int32_t arg;
};

FoldResult run_affine(SimdTier tier, const std::vector<double>& ev,
                      const std::vector<double>& exvg,
                      const std::vector<double>& b,
                      const std::vector<double>& c,
                      const std::vector<double>& d, double k1, double k2,
                      std::size_t lo, std::size_t hi, double seed_best,
                      std::int32_t seed_arg) {
  FoldResult r{seed_best, seed_arg};
  switch (tier) {
    case SimdTier::kAvx512:
      simd::Avx512Kernels::affine(ev.data(), exvg.data(), b.data(), c.data(),
                                  d.data(), k1, k2, lo, hi, r.best, r.arg);
      break;
    case SimdTier::kAvx2:
      simd::Avx2Kernels::affine(ev.data(), exvg.data(), b.data(), c.data(),
                                d.data(), k1, k2, lo, hi, r.best, r.arg);
      break;
    default:
      simd::ScalarKernels::affine(ev.data(), exvg.data(), b.data(), c.data(),
                                  d.data(), k1, k2, lo, hi, r.best, r.arg);
      break;
  }
  return r;
}

FoldResult run_sum(SimdTier tier, const std::vector<double>& a,
                   const std::vector<double>& c, std::size_t lo,
                   std::size_t hi, double seed_best, std::int32_t seed_arg) {
  FoldResult r{seed_best, seed_arg};
  switch (tier) {
    case SimdTier::kAvx512:
      simd::Avx512Kernels::sum(a.data(), c.data(), lo, hi, r.best, r.arg);
      break;
    case SimdTier::kAvx2:
      simd::Avx2Kernels::sum(a.data(), c.data(), lo, hi, r.best, r.arg);
      break;
    default:
      simd::ScalarKernels::sum(a.data(), c.data(), lo, hi, r.best, r.arg);
      break;
  }
  return r;
}

void run_fold(SimdTier tier, const std::vector<double>& row, double base,
              std::int32_t arg, std::vector<double>& run_best,
              std::vector<std::int32_t>& run_arg, std::size_t lo,
              std::size_t hi) {
  switch (tier) {
    case SimdTier::kAvx512:
      simd::Avx512Kernels::fold(row.data(), base, arg, run_best.data(),
                                run_arg.data(), lo, hi);
      break;
    case SimdTier::kAvx2:
      simd::Avx2Kernels::fold(row.data(), base, arg, run_best.data(),
                              run_arg.data(), lo, hi);
      break;
    default:
      simd::ScalarKernels::fold(row.data(), base, arg, run_best.data(),
                                run_arg.data(), lo, hi);
      break;
  }
}

/// The five streams of one ADMV hop row (pp, qq, rr, er, ep).
struct PartialRow {
  std::vector<double> pp, qq, rr, er, ep;
  explicit PartialRow(std::size_t len)
      : pp(len), qq(len), rr(len), er(len), ep(len) {}
};

FoldResult run_partial(SimdTier tier, const PartialRow& row, double ev,
                       std::size_t lo, std::size_t hi, double seed_best,
                       std::int32_t seed_arg) {
  FoldResult r{seed_best, seed_arg};
  switch (tier) {
    case SimdTier::kAvx512:
      simd::Avx512Kernels::partial(row.pp.data(), row.qq.data(),
                                   row.rr.data(), row.er.data(),
                                   row.ep.data(), ev, lo, hi, r.best, r.arg);
      break;
    case SimdTier::kAvx2:
      simd::Avx2Kernels::partial(row.pp.data(), row.qq.data(), row.rr.data(),
                                 row.er.data(), row.ep.data(), ev, lo, hi,
                                 r.best, r.arg);
      break;
    default:
      simd::ScalarKernels::partial(row.pp.data(), row.qq.data(),
                                   row.rr.data(), row.er.data(),
                                   row.ep.data(), ev, lo, hi, r.best, r.arg);
      break;
  }
  return r;
}

/// Fills `out` with values drawn from a tiny discrete set, so sums and
/// affine combinations collide exactly (no rounding noise) and the
/// streams are dense with ties -- the leftmost-argmin trap.
void fill_tie_dense(util::Xoshiro256& rng, std::vector<double>& out) {
  static constexpr double kLevels[] = {0.25, 0.5, 1.0};
  for (double& v : out) {
    v = kLevels[rng() % 3];
  }
}

void fill_random(util::Xoshiro256& rng, std::vector<double>& out,
                 double scale) {
  for (double& v : out) {
    v = scale * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
  }
}

TEST(SimdKernels, AffineMatchesScalarOnRandomAndTieDenseStreams) {
  const auto tiers = supported_tiers();
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x51);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t len = 1 + rng() % 200;
    std::vector<double> ev(len), exvg(len), b(len), c(len), d(len);
    double k1;
    double k2;
    const bool ties = trial % 2 == 0;
    if (ties) {
      // Exact-tie regime: discrete coefficient levels, power-of-two
      // multipliers, so distinct v1 produce identical candidates.
      fill_tie_dense(rng, ev);
      fill_tie_dense(rng, exvg);
      fill_tie_dense(rng, b);
      fill_tie_dense(rng, c);
      fill_tie_dense(rng, d);
      k1 = 2.0;
      k2 = 0.5;
    } else {
      fill_random(rng, ev, 1e4);
      fill_random(rng, exvg, 1e4);
      fill_random(rng, b, 2.0);
      fill_random(rng, c, 2.0);
      fill_random(rng, d, 2.0);
      k1 = 1e3 * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
      k2 = 1e2 * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
    }
    const std::size_t lo = rng() % len;
    const std::size_t hi = lo + rng() % (len - lo + 1);
    // Seed sometimes already beats the window (the incoming-best rule).
    const double seed =
        trial % 3 == 0 ? 0.0 : std::numeric_limits<double>::infinity();
    const FoldResult want =
        run_affine(SimdTier::kScalar, ev, exvg, b, c, d, k1, k2, lo, hi,
                   seed, -7);
    for (SimdTier tier : tiers) {
      const FoldResult got =
          run_affine(tier, ev, exvg, b, c, d, k1, k2, lo, hi, seed, -7);
      EXPECT_EQ(want.best, got.best)
          << simd::tier_name(tier) << " trial " << trial;
      EXPECT_EQ(want.arg, got.arg)
          << simd::tier_name(tier) << " trial " << trial;
    }
  }
}

TEST(SimdKernels, SumMatchesScalarOnRandomAndTieDenseStreams) {
  const auto tiers = supported_tiers();
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x52);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t len = 1 + rng() % 300;
    std::vector<double> a(len), c(len);
    if (trial % 2 == 0) {
      fill_tie_dense(rng, a);
      fill_tie_dense(rng, c);
    } else {
      fill_random(rng, a, 1e5);
      fill_random(rng, c, 1e5);
    }
    const std::size_t lo = rng() % len;
    const std::size_t hi = lo + rng() % (len - lo + 1);
    const double seed =
        trial % 3 == 0 ? 0.75 : std::numeric_limits<double>::infinity();
    const FoldResult want =
        run_sum(SimdTier::kScalar, a, c, lo, hi, seed, -3);
    for (SimdTier tier : tiers) {
      const FoldResult got = run_sum(tier, a, c, lo, hi, seed, -3);
      EXPECT_EQ(want.best, got.best) << simd::tier_name(tier);
      EXPECT_EQ(want.arg, got.arg) << simd::tier_name(tier);
    }
  }
}

TEST(SimdKernels, PartialMatchesScalarOnRandomAndTieDenseStreams) {
  const auto tiers = supported_tiers();
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x54);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t len = 1 + rng() % 200;
    PartialRow row(len);
    double ev;
    if (trial % 2 == 0) {
      // Exact-tie regime: discrete levels and a power-of-two E_verif, so
      // distinct p2 produce identical candidates.
      for (auto* v : {&row.pp, &row.qq, &row.rr, &row.er, &row.ep}) {
        fill_tie_dense(rng, *v);
      }
      ev = 2.0;
    } else {
      fill_random(rng, row.pp, 1e4);
      fill_random(rng, row.qq, 2.0);
      fill_random(rng, row.rr, 2.0);
      fill_random(rng, row.er, 1e3);
      fill_random(rng, row.ep, 1e5);
      ev = 1e3 * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
    }
    const std::size_t lo = rng() % len;
    const std::size_t hi = lo + rng() % (len - lo + 1);
    // The terminal-choice seed sometimes sits inside the candidates'
    // range: it beats some of them and ties or loses to others.
    const double in_range = trial % 2 == 0 ? 2.0 : 5e4;
    const double seed =
        trial % 3 == 0 ? in_range : std::numeric_limits<double>::infinity();
    const auto seed_arg = static_cast<std::int32_t>(hi);
    const FoldResult want =
        run_partial(SimdTier::kScalar, row, ev, lo, hi, seed, seed_arg);
    for (SimdTier tier : tiers) {
      const FoldResult got = run_partial(tier, row, ev, lo, hi, seed, seed_arg);
      EXPECT_EQ(want.best, got.best)
          << simd::tier_name(tier) << " trial " << trial;
      EXPECT_EQ(want.arg, got.arg)
          << simd::tier_name(tier) << " trial " << trial;
    }
  }
}

TEST(SimdKernels, PartialTwoEqualMinimaPinLeftmostAcrossLanesAndTail) {
  // Every candidate 3.0 except two equal minima at a < b: the fold must
  // return a on every tier, wherever the pair falls -- same lane, across
  // lanes, across the vector body and the scalar tail.  lo = 1 keeps the
  // window unaligned; windows shorter than one vector run the tail only.
  const auto tiers = supported_tiers();
  for (const std::size_t width : {std::size_t{3}, std::size_t{7},
                                  std::size_t{21}, std::size_t{37}}) {
    const std::size_t lo = 1;
    const std::size_t hi = lo + width;
    PartialRow row(hi);
    for (std::size_t i = 0; i < hi; ++i) {
      row.pp[i] = 1.0;  // 1 + 0.5*2 + 0.5*1 + 0.5 = 3
      row.qq[i] = 0.5;
      row.rr[i] = 0.5;
      row.er[i] = 1.0;
      row.ep[i] = 0.5;
    }
    for (std::size_t a = lo; a < hi; ++a) {
      for (std::size_t b = a + 1; b < hi; ++b) {
        row.ep[a] = row.ep[b] = -0.5;  // candidates 2.0
        for (SimdTier tier : tiers) {
          const FoldResult got =
              run_partial(tier, row, 2.0, lo, hi,
                          std::numeric_limits<double>::infinity(), -1);
          EXPECT_EQ(got.best, 2.0) << simd::tier_name(tier);
          EXPECT_EQ(got.arg, static_cast<std::int32_t>(a))
              << simd::tier_name(tier) << " width " << width << " pair ("
              << a << ", " << b << ")";
          // A seed equal to the minimum must NOT be displaced.
          const FoldResult kept = run_partial(tier, row, 2.0, lo, hi, 2.0,
                                              static_cast<std::int32_t>(hi));
          EXPECT_EQ(kept.arg, static_cast<std::int32_t>(hi))
              << simd::tier_name(tier) << " width " << width;
        }
        row.ep[a] = row.ep[b] = 0.5;
      }
    }
  }
}

TEST(SimdKernels, AllEqualStreamPinsLeftmostIndex) {
  // Every candidate identical: the argmin MUST be the window's first
  // index on every tier (strict-less keeps the earliest).
  const auto tiers = supported_tiers();
  for (const std::size_t len : {std::size_t{3}, std::size_t{8},
                                std::size_t{17}, std::size_t{64},
                                std::size_t{129}}) {
    const std::vector<double> a(len, 1.5), c(len, 2.5);
    PartialRow row(len);  // 1.5 + 0.25*2 + 0.5*2 + 1 = 4
    row.pp.assign(len, 1.5);
    row.qq.assign(len, 0.25);
    row.rr.assign(len, 0.5);
    row.er.assign(len, 2.0);
    row.ep.assign(len, 1.0);
    for (const std::size_t lo :
         {std::size_t{0}, std::size_t{1}, len / 2}) {
      for (SimdTier tier : tiers) {
        const FoldResult got =
            run_sum(tier, a, c, lo, len,
                    std::numeric_limits<double>::infinity(), -1);
        EXPECT_EQ(got.best, 4.0) << simd::tier_name(tier);
        EXPECT_EQ(got.arg, static_cast<std::int32_t>(lo))
            << simd::tier_name(tier) << " len " << len;
        const FoldResult hop =
            run_partial(tier, row, 2.0, lo, len,
                        std::numeric_limits<double>::infinity(), -1);
        EXPECT_EQ(hop.best, 4.0) << simd::tier_name(tier);
        EXPECT_EQ(hop.arg, static_cast<std::int32_t>(lo))
            << simd::tier_name(tier) << " len " << len;
      }
    }
    // A seed equal to the stream minimum must NOT be displaced.
    for (SimdTier tier : tiers) {
      const FoldResult got = run_sum(tier, a, c, 0, len, 4.0, -9);
      EXPECT_EQ(got.arg, -9) << simd::tier_name(tier);
      const FoldResult hop = run_partial(tier, row, 2.0, 0, len, 4.0, -9);
      EXPECT_EQ(hop.arg, -9) << simd::tier_name(tier);
    }
  }
}

TEST(SimdKernels, FoldMatchesScalarIncludingTies) {
  const auto tiers = supported_tiers();
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x53);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 1 + rng() % 300;
    std::vector<double> row(len);
    if (trial % 2 == 0) {
      fill_tie_dense(rng, row);
    } else {
      fill_random(rng, row, 1e4);
    }
    std::vector<double> best0(len);
    std::vector<std::int32_t> arg0(len, -1);
    if (trial % 2 == 0) {
      fill_tie_dense(rng, best0);  // exact ties against the incoming row
    } else {
      fill_random(rng, best0, 1e4);
    }
    const double base = trial % 2 == 0 ? 0.5 : 123.25;
    const std::size_t lo = rng() % len;
    const std::size_t hi = lo + rng() % (len - lo + 1);

    std::vector<double> want_best = best0;
    std::vector<std::int32_t> want_arg = arg0;
    run_fold(SimdTier::kScalar, row, base, 7, want_best, want_arg, lo, hi);
    for (SimdTier tier : tiers) {
      std::vector<double> got_best = best0;
      std::vector<std::int32_t> got_arg = arg0;
      run_fold(tier, row, base, 7, got_best, got_arg, lo, hi);
      EXPECT_EQ(want_best, got_best) << simd::tier_name(tier);
      EXPECT_EQ(want_arg, got_arg) << simd::tier_name(tier);
    }
  }
}

TEST(SimdDispatch, ParseAndClampBehave) {
  SimdTier out = SimdTier::kAvx2;
  EXPECT_TRUE(simd::parse_tier("scalar", out));
  EXPECT_EQ(out, SimdTier::kScalar);
  EXPECT_TRUE(simd::parse_tier("avx2", out));
  EXPECT_EQ(out, SimdTier::kAvx2);
  EXPECT_TRUE(simd::parse_tier("avx512", out));
  EXPECT_EQ(out, SimdTier::kAvx512);
  EXPECT_TRUE(simd::parse_tier("auto", out));
  EXPECT_EQ(out, simd::detected_tier());
  out = SimdTier::kAvx512;
  EXPECT_FALSE(simd::parse_tier("AVX2", out));  // case-sensitive
  EXPECT_FALSE(simd::parse_tier("", out));
  EXPECT_EQ(out, SimdTier::kAvx512);  // untouched on failure

  // Scalar is always available; clamping never selects an unsupported
  // tier and never raises the request.
  EXPECT_TRUE(simd::tier_supported(SimdTier::kScalar));
  EXPECT_EQ(simd::clamp_tier(SimdTier::kScalar), SimdTier::kScalar);
  for (SimdTier t : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    const SimdTier clamped = simd::clamp_tier(t);
    EXPECT_LE(static_cast<int>(clamped), static_cast<int>(t));
    EXPECT_TRUE(simd::tier_supported(clamped));
  }
  EXPECT_TRUE(simd::tier_supported(simd::detected_tier()));
  EXPECT_TRUE(simd::tier_supported(simd::active_tier()));
}

TEST(SimdDispatch, ContextOverrideClampsToSupported) {
  const auto chain = chain::make_uniform(4, 25000.0);
  const platform::CostModel costs{platform::hera()};
  DpContext ctx(chain, costs);
  EXPECT_EQ(ctx.simd_tier(), simd::active_tier());
  ctx.set_simd_tier(SimdTier::kScalar);
  EXPECT_EQ(ctx.simd_tier(), SimdTier::kScalar);
  ctx.set_simd_tier(SimdTier::kAvx512);
  EXPECT_TRUE(simd::tier_supported(ctx.simd_tier()));
  EXPECT_EQ(ctx.simd_tier(), simd::clamp_tier(SimdTier::kAvx512));
}

// ---------------------------------------------------------------------
// End-to-end: every supported tier must reproduce the scalar solve --
// objective, plan, and scan counters -- bit for bit, and the counters
// must match the loops walked in scan_counts.hpp.

void expect_same_scan(const ScanStats& a, const ScanStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.dense_cells, b.dense_cells) << label;
  EXPECT_EQ(a.cells_scanned, b.cells_scanned) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
}

void expect_tier_equivalence(Algorithm algorithm,
                             const chain::TaskChain& chain,
                             const platform::CostModel& costs,
                             const std::string& label) {
  DpContext scalar_ctx(chain, costs);
  scalar_ctx.set_simd_tier(SimdTier::kScalar);
  const OptimizationResult want = optimize(algorithm, scalar_ctx);
  expect_same_scan(want.scan, walked_scan_stats(algorithm, want.plan),
                   label + " @scalar vs walked loops");
  for (SimdTier tier : supported_tiers()) {
    if (tier == SimdTier::kScalar) continue;
    DpContext ctx(chain, costs);
    ctx.set_simd_tier(tier);
    const OptimizationResult got = optimize(algorithm, ctx);
    const std::string who = label + " @" + simd::tier_name(tier);
    EXPECT_EQ(want.expected_makespan, got.expected_makespan) << who;
    EXPECT_EQ(want.plan.compact_string(), got.plan.compact_string()) << who;
    expect_same_scan(want.scan, got.scan, who);
  }
}

TEST(SimdEquivalence, TableOnePlatformsAllAlgorithms) {
  for (const auto& platform : platform::table1_platforms()) {
    const platform::CostModel costs(platform);
    const auto chain = chain::make_uniform(48, 25000.0);
    const std::string label = platform.name;
    for (const Algorithm algorithm :
         {Algorithm::kAD, Algorithm::kADVstar, Algorithm::kADMVstar,
          Algorithm::kADMV}) {
      expect_tier_equivalence(algorithm, chain, costs, label);
    }
  }
}

TEST(SimdEquivalence, SeededRandomPlatformsSmallN) {
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x5E);
  const std::size_t sizes[] = {32, 48, 64};
  for (int trial = 0; trial < 6; ++trial) {
    const auto platform =
        bench::random_platform(rng, "Simd" + std::to_string(trial));
    const platform::CostModel costs(platform);
    const std::size_t n = sizes[trial % 3];
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = platform.describe();
    expect_tier_equivalence(Algorithm::kADMVstar, chain, costs, label);
    expect_tier_equivalence(Algorithm::kADVstar, chain, costs, label);
    // ADMV's O(n^6) DP joins at n <= 48 to keep tier 1 fast.
    if (n <= 48) expect_tier_equivalence(Algorithm::kADMV, chain, costs, label);
  }
}

TEST(SimdEquivalence, SingleLevelLargeN) {
  // The streamed single-level DP is cheap enough to sweep large n in
  // tier 1 (the fold kernel only runs there).
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x5F);
  for (const std::size_t n : {std::size_t{128}, std::size_t{400}}) {
    const auto platform = bench::random_platform(rng);
    const platform::CostModel costs(platform);
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = "single n=" + std::to_string(n);
    expect_tier_equivalence(Algorithm::kADVstar, chain, costs, label);
  }
}

TEST(SimdEquivalence, SlowTwoLevelLargeN) {
  if (std::getenv("CHAINCKPT_SLOW_TESTS") == nullptr) {
    GTEST_SKIP() << "two-level n=200/400 and partial n=100 tier sweep; set "
                    "CHAINCKPT_SLOW_TESTS=1";
  }
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x60);
  for (const std::size_t n : {std::size_t{200}, std::size_t{400}}) {
    const auto platform = bench::random_platform(rng);
    const platform::CostModel costs(platform);
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = "two-level n=" + std::to_string(n);
    expect_tier_equivalence(Algorithm::kADMVstar, chain, costs, label);
  }
  const auto platform = bench::random_platform(rng);
  const platform::CostModel costs(platform);
  const auto chain = chain::make_random(100, 25000.0 * 100, rng);
  expect_tier_equivalence(Algorithm::kADMV, chain, costs, "partial n=100");
}

}  // namespace
}  // namespace chainckpt::core
