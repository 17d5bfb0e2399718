// Qualitative claims of the paper's evaluation (Section IV), asserted as
// regression tests.  Quantities are gated with generous margins around the
// values this implementation reproduces (bench/bench_paper.cpp prints the
// full Table I and Figures 5-8 they come from).
#include <gtest/gtest.h>

#include "chain/patterns.hpp"
#include "core/optimizer.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"

namespace chainckpt {
namespace {

core::OptimizationResult run(const platform::Platform& p,
                             chain::Pattern pattern, std::size_t n,
                             core::Algorithm algorithm) {
  const platform::CostModel costs(p);
  const auto chain = chain::make_pattern(pattern, n, 25000.0);
  return core::optimize(algorithm, chain, costs);
}

TEST(PaperClaims, TwoLevelAlwaysImprovesOnSingleLevel) {
  // "the algorithm ADMV* always leads to a better makespan compared to the
  // single-level algorithm ADV*".
  for (const auto& p : platform::table1_platforms()) {
    for (std::size_t n : {10u, 25u, 50u}) {
      const auto adv = run(p, chain::Pattern::kUniform, n,
                           core::Algorithm::kADVstar);
      const auto admv_star = run(p, chain::Pattern::kUniform, n,
                                 core::Algorithm::kADMVstar);
      EXPECT_LE(admv_star.expected_makespan,
                adv.expected_makespan * (1.0 + 1e-12))
          << p.name << " n=" << n;
    }
  }
}

TEST(PaperClaims, HeraGainIsAboutTwoPercent) {
  // "our approach saves 2% of execution time on Hera".
  const auto adv =
      run(platform::hera(), chain::Pattern::kUniform, 50,
          core::Algorithm::kADVstar);
  const auto admv_star =
      run(platform::hera(), chain::Pattern::kUniform, 50,
          core::Algorithm::kADMVstar);
  const double gain =
      1.0 - admv_star.expected_makespan / adv.expected_makespan;
  EXPECT_GT(gain, 0.012);
  EXPECT_LT(gain, 0.030);
}

TEST(PaperClaims, AtlasGainIsAboutFivePercent) {
  // "... and 5% on Atlas".
  const auto adv = run(platform::atlas(), chain::Pattern::kUniform, 50,
                       core::Algorithm::kADVstar);
  const auto admv_star = run(platform::atlas(), chain::Pattern::kUniform,
                             50, core::Algorithm::kADMVstar);
  const double gain =
      1.0 - admv_star.expected_makespan / adv.expected_makespan;
  EXPECT_GT(gain, 0.035);
  EXPECT_LT(gain, 0.065);
}

TEST(PaperClaims, CoastalSsdPartialVerificationGainIsAboutOnePercent) {
  // "we observe an improved makespan (around 1% with 50 tasks) compared to
  // the ADMV* algorithm" on Coastal SSD.
  const auto admv_star =
      run(platform::coastal_ssd(), chain::Pattern::kUniform, 50,
          core::Algorithm::kADMVstar);
  const auto admv = run(platform::coastal_ssd(), chain::Pattern::kUniform,
                        50, core::Algorithm::kADMV);
  const double gain =
      1.0 - admv.expected_makespan / admv_star.expected_makespan;
  EXPECT_GT(gain, 0.005);
  EXPECT_LT(gain, 0.02);
}

TEST(PaperClaims, NoInteriorDiskCheckpointsAtFiftyUniformTasks) {
  // Figure 6: "For all platforms, the algorithm does not perform any
  // additional disk checkpoints."
  for (const auto& p : platform::table1_platforms()) {
    const auto admv = run(p, chain::Pattern::kUniform, 50,
                          core::Algorithm::kADMV);
    EXPECT_EQ(admv.plan.interior_counts().disk, 0u) << p.name;
  }
}

TEST(PaperClaims, VerificationsOutnumberCheckpoints) {
  // Figure 5, ADV* column: "a large number of guaranteed verifications is
  // placed ... while the number of checkpoints remains relatively small
  // (less than 5 for all platforms)" -- Coastal SSD's expensive
  // verifications excepted.
  for (const auto& p : {platform::hera(), platform::atlas(),
                        platform::coastal()}) {
    const auto adv = run(p, chain::Pattern::kUniform, 50,
                         core::Algorithm::kADVstar);
    const auto counts = adv.plan.interior_counts();
    EXPECT_LT(counts.disk, 5u) << p.name;
    EXPECT_GT(counts.guaranteed, 4 * counts.disk) << p.name;
  }
}

TEST(PaperClaims, CoastalSsdPrefersPartialsOverGuaranteed) {
  // "on the Coastal SSD platform, the cost of checkpoints and
  // verifications is substantially higher, which leads the algorithm to
  // choose partial verifications over guaranteed ones."
  const auto admv = run(platform::coastal_ssd(), chain::Pattern::kUniform,
                        50, core::Algorithm::kADMV);
  const auto counts = admv.plan.interior_counts();
  EXPECT_GT(counts.partial, counts.guaranteed);
  EXPECT_GT(counts.partial, 10u);
}

TEST(PaperClaims, EquispacedMemoryCheckpointsOnHeraUniform) {
  // Figure 6 Hera: "the optimal solution is a combination of equi-spaced
  // memory checkpoints and guaranteed verifications, with additional
  // partial verifications in-between."
  const auto admv = run(platform::hera(), chain::Pattern::kUniform, 50,
                        core::Algorithm::kADMV);
  const auto mems = admv.plan.memory_positions();
  ASSERT_GE(mems.size(), 3u);
  // Gaps between consecutive memory checkpoints vary by at most 2 tasks.
  std::size_t min_gap = 50, max_gap = 0;
  std::size_t prev = 0;
  for (std::size_t m : mems) {
    min_gap = std::min(min_gap, m - prev);
    max_gap = std::max(max_gap, m - prev);
    prev = m;
  }
  EXPECT_LE(max_gap - min_gap, 2u);
  EXPECT_GT(admv.plan.interior_counts().partial, 20u);
}

TEST(PaperClaims, DecreasePatternFrontLoadsResilience) {
  // Figure 7: "the large tasks at the beginning of the chain ... will be
  // checkpointed more often, as opposed to the small tasks at the end,
  // which the algorithm does not even consider worth verifying."
  const auto admv = run(platform::hera(), chain::Pattern::kDecrease, 50,
                        core::Algorithm::kADMV);
  std::size_t first_half = 0, second_half = 0;
  for (std::size_t i = 1; i < 50; ++i) {
    if (admv.plan.action(i) != plan::Action::kNone) {
      (i <= 25 ? first_half : second_half) += 1;
    }
  }
  EXPECT_GT(first_half, second_half);
  // The last few small tasks carry no resilience actions at all.
  for (std::size_t i = 46; i < 50; ++i)
    EXPECT_EQ(admv.plan.action(i), plan::Action::kNone) << "position " << i;
  // All memory checkpoints sit in the first half.
  for (std::size_t m : admv.plan.memory_positions()) {
    if (m != 50) {
      EXPECT_LE(m, 25u);
    }
  }
}

TEST(PaperClaims, HighLowMakesMemoryCheckpointsMandatoryOnHera) {
  // Figure 8 discussion: on Hera "the memory checkpoint, which takes only
  // 15.4s, becomes mandatory" for the five 3000s-tasks.
  const auto admv = run(platform::hera(), chain::Pattern::kHighLow, 50,
                        core::Algorithm::kADMV);
  std::size_t mem_in_large = 0;
  for (std::size_t i = 1; i <= 5; ++i)
    if (has_memory_checkpoint(admv.plan.action(i))) ++mem_in_large;
  EXPECT_GE(mem_in_large, 3u);
  // Disk checkpoints stay too expensive even there.
  EXPECT_EQ(admv.plan.interior_counts().disk, 0u);
}

TEST(PaperClaims, HighLowOnCoastalSsdStaysFrugal) {
  // "On Coastal SSD ... the memory checkpoint is still quite expensive":
  // few (if any) of the large tasks get V*+M, unlike on Hera.
  const auto admv = run(platform::coastal_ssd(), chain::Pattern::kHighLow,
                        50, core::Algorithm::kADMV);
  std::size_t mem_in_large = 0;
  for (std::size_t i = 1; i <= 5; ++i)
    if (has_memory_checkpoint(admv.plan.action(i))) ++mem_in_large;
  EXPECT_LE(mem_in_large, 1u);
}

TEST(PaperClaims, SmallTaskCountsSufferFromLargeTasks) {
  // Figure 5 discussion: tiny n means huge tasks and expensive rollbacks;
  // the makespan improves once tasks shrink.
  for (const auto& p : platform::table1_platforms()) {
    const auto at = [&](std::size_t n) {
      return run(p, chain::Pattern::kUniform, n, core::Algorithm::kADMV)
                 .expected_makespan /
             25000.0;
    };
    EXPECT_GT(at(1), at(50)) << p.name;
    EXPECT_GT(at(2), at(20)) << p.name;
  }
}

TEST(PaperClaims, DeviationNote_PartialsAppearEarlierThanPaperPlots) {
  // The paper's Figure 5 shows ADMV using partial verifications only for
  // n > 30 on Hera.  Our implementation -- which is brute-force-verified
  // optimal for the stated model -- already benefits from them at smaller
  // n.  This test pins the measured onset so any regression (or fix that
  // reconciles the difference) is visible.
  const platform::CostModel costs(platform::hera());
  std::size_t first = 0;
  for (std::size_t n = 2; n <= 50; ++n) {
    const auto chain = chain::make_uniform(n, 25000.0);
    if (core::optimize(core::Algorithm::kADMV, chain, costs)
            .plan.uses_partial_verifications()) {
      first = n;
      break;
    }
  }
  EXPECT_EQ(first, 10u);
}

}  // namespace
}  // namespace chainckpt
