// Incremental-rebuild equivalence: patching a (WeightTable, SegmentTables)
// pair for a drifted parameter must produce coefficient streams that are
// BYTE-identical (memcmp) to a from-scratch build -- for the exponential
// and the Weibull build paths alike.  The DP kernels consume these
// streams verbatim, so byte-identity here is what makes a plan-cache
// re-solve on patched tables bitwise indistinguishable from a cold solve.
#include "analysis/segment_tables.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "chain/patterns.hpp"
#include "chain/weight_table.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"

namespace chainckpt::analysis {
namespace {

constexpr std::size_t kN = 12;

chain::TaskChain test_chain() { return chain::make_uniform(kN, 25000.0); }

platform::Platform scaled_hera() {
  platform::Platform p = platform::hera();
  p.lambda_f *= 25.0;
  p.lambda_s *= 25.0;
  return p;
}

bool same_doubles(const double* a, const double* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(double)) == 0;
}

/// Full byte comparison of every stream the two tables expose.
void expect_identical(const SegmentTables& patched,
                      const SegmentTables& scratch, const char* what) {
  ASSERT_EQ(patched.n(), scratch.n());
  const std::size_t n = patched.n();
  const std::size_t full = (n + 1) * (n + 1);
  EXPECT_TRUE(same_doubles(patched.exvg_col(0), scratch.exvg_col(0), full))
      << what << ": exvg";
  EXPECT_TRUE(same_doubles(patched.b_col(0), scratch.b_col(0), full))
      << what << ": b_col";
  EXPECT_TRUE(same_doubles(patched.c_col(0), scratch.c_col(0), full))
      << what << ": c_col";
  EXPECT_TRUE(same_doubles(patched.d_col(0), scratch.d_col(0), full))
      << what << ": d_col";
  EXPECT_TRUE(same_doubles(patched.fs_col(0), scratch.fs_col(0), full))
      << what << ": fs_col";
  for (std::size_t i = 1; i <= n; ++i) {
    const double pg = patched.vg_after(i), sg = scratch.vg_after(i);
    EXPECT_TRUE(same_doubles(&pg, &sg, 1)) << what << ": vg[" << i << "]";
  }
}

/// Builds base tables for `base_p`, patches them to `next`, and checks
/// the patch against a from-scratch build of `next`.
PatchSummary patch_and_check(const platform::CostModel& base_costs,
                             const platform::CostModel& next_costs,
                             const char* what) {
  const chain::TaskChain chain = test_chain();
  const chain::WeightTable base_table(chain, base_costs.lambda_f(),
                                      base_costs.lambda_s());
  const SegmentTables base(base_table, base_costs);

  const chain::WeightTable patched_table(base_table, next_costs.lambda_f(),
                                         next_costs.lambda_s());
  PatchSummary summary;
  const SegmentTables patched(base, patched_table, next_costs, &summary);

  const chain::WeightTable scratch_table(chain, next_costs.lambda_f(),
                                         next_costs.lambda_s());
  const SegmentTables scratch(scratch_table, next_costs);

  // The patched WeightTable itself must be bitwise equal to scratch.
  for (std::size_t i = 0; i <= kN; ++i) {
    for (std::size_t j = i; j <= kN; ++j) {
      const double pf = patched_table.em1_f(i, j);
      const double sf = scratch_table.em1_f(i, j);
      const double ps = patched_table.em1_s(i, j);
      const double ss = scratch_table.em1_s(i, j);
      EXPECT_TRUE(same_doubles(&pf, &sf, 1)) << what << " em1_f " << i << j;
      EXPECT_TRUE(same_doubles(&ps, &ss, 1)) << what << " em1_s " << i << j;
    }
  }
  expect_identical(patched, scratch, what);
  return summary;
}

platform::CostModel exp_costs(const platform::Platform& p) {
  return platform::CostModel(p);
}

platform::CostModel weibull_costs(const platform::Platform& p,
                                  double shape) {
  platform::CostModel costs(p);
  costs.set_planning_law({platform::FailureLaw::kWeibull, shape});
  return costs;
}

TEST(SegmentTablesPatch, LambdaFDriftRebuildsOnlyItsDependents) {
  platform::Platform base = scaled_hera();
  platform::Platform next = base;
  next.lambda_f *= 1.07;
  const PatchSummary summary =
      patch_and_check(exp_costs(base), exp_costs(next), "lambda_f");
  EXPECT_GT(summary.streams_rebuilt, 0u);
  EXPECT_GT(summary.streams_reused, 0u);
}

TEST(SegmentTablesPatch, LambdaSDriftRebuildsOnlyItsDependents) {
  platform::Platform base = scaled_hera();
  platform::Platform next = base;
  next.lambda_s *= 0.93;
  const PatchSummary summary =
      patch_and_check(exp_costs(base), exp_costs(next), "lambda_s");
  EXPECT_GT(summary.streams_rebuilt, 0u);
  EXPECT_GT(summary.streams_reused, 0u);
}

TEST(SegmentTablesPatch, BothRatesDrift) {
  platform::Platform base = scaled_hera();
  platform::Platform next = base;
  next.lambda_f *= 1.11;
  next.lambda_s *= 1.05;
  patch_and_check(exp_costs(base), exp_costs(next), "both rates");
}

TEST(SegmentTablesPatch, VerificationCostDriftTouchesOnlyTheVStreams) {
  platform::Platform base = scaled_hera();
  platform::Platform next = base;
  next.v_guaranteed *= 1.3;
  next.v_partial *= 0.7;
  const PatchSummary summary =
      patch_and_check(exp_costs(base), exp_costs(next), "verif costs");
  // vg -> {exvg, vg}; V is never baked into the tables (ADMV builds its
  // own row streams), so no shared b/c/d and nothing for vp.
  EXPECT_EQ(summary.streams_rebuilt, 2u);
}

TEST(SegmentTablesPatch, CheckpointAndRecoveryDriftIsAFullReuse) {
  // C_D/C_M/R_D/R_M, V and the recall are never baked into the
  // coefficient streams -- the DP reads them from the CostModel directly
  // -- so a drift confined to them must copy EVERY stream.
  platform::Platform base = scaled_hera();
  platform::Platform next = base;
  next.c_disk *= 1.4;
  next.c_mem *= 0.8;
  next.r_disk *= 1.2;
  next.r_mem *= 1.1;
  next.v_partial *= 0.6;
  next.recall = 0.7;
  const PatchSummary summary =
      patch_and_check(exp_costs(base), exp_costs(next), "ckpt costs");
  EXPECT_EQ(summary.streams_rebuilt, 0u);
  EXPECT_GT(summary.streams_reused, 0u);
}

TEST(SegmentTablesPatch, WeibullShapeDriftRebuildsTheLawStreams) {
  const platform::Platform p = scaled_hera();
  patch_and_check(weibull_costs(p, 0.7), weibull_costs(p, 0.9),
                  "weibull shape");
}

TEST(SegmentTablesPatch, WeibullRateDrift) {
  platform::Platform base = scaled_hera();
  platform::Platform next = base;
  next.lambda_f *= 1.08;
  patch_and_check(weibull_costs(base, 0.7), weibull_costs(next, 0.7),
                  "weibull lambda_f");
}

TEST(SegmentTablesPatch, LawChangeAcrossThePatchIsByteExact) {
  const platform::Platform p = scaled_hera();
  // exponential -> Weibull and back: the law bit flips every law-dependent
  // stream, and the result must still match scratch bitwise.
  patch_and_check(exp_costs(p), weibull_costs(p, 0.7), "exp->weibull");
  patch_and_check(weibull_costs(p, 0.7), exp_costs(p), "weibull->exp");
}

TEST(SegmentTablesPatch, ShapeOneWeibullIsTheExponentialClass) {
  // Weibull with shape exactly 1 takes the exponential build verbatim, so
  // patching from a plain exponential base must treat the law as
  // unchanged (nothing law-driven rebuilt beyond what the rates demand).
  const platform::Platform p = scaled_hera();
  const PatchSummary summary = patch_and_check(
      exp_costs(p), weibull_costs(p, 1.0), "weibull shape-1");
  EXPECT_EQ(summary.streams_rebuilt, 0u);
}

TEST(SegmentTablesPatch, PerPositionCostsPatchByteExact) {
  const platform::Platform base_p = scaled_hera();
  platform::Platform next_p = base_p;
  next_p.lambda_s *= 1.06;
  const auto per_position = [](const platform::Platform& p) {
    std::vector<double> c_disk(kN, p.c_disk), c_mem(kN, p.c_mem),
        v_g(kN), v_p(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      v_g[i] = p.v_guaranteed * (0.5 + 0.1 * static_cast<double>(i));
      v_p[i] = p.v_partial * (1.5 - 0.05 * static_cast<double>(i));
    }
    return platform::CostModel(p, c_disk, c_mem, v_g, v_p);
  };
  patch_and_check(per_position(base_p), per_position(next_p),
                  "per-position lambda_s");
}

/// Every table a solve builds, for one chain and one rate drift: the full
/// WeightTable + SegmentTables pair, their patched successors, and the
/// ADMV row streams over the patched table.
struct TableSet {
  TableSet(const chain::TaskChain& chain, const platform::CostModel& base,
           const platform::CostModel& next)
      : table(chain, base.lambda_f(), base.lambda_s()),
        full(table, base),
        patched_table(table, next.lambda_f(), next.lambda_s()),
        patched(full, patched_table, next),
        rows(patched_table, next) {}

  chain::WeightTable table;
  SegmentTables full;
  chain::WeightTable patched_table;
  SegmentTables patched;
  SegmentRows rows;
};

void expect_same_weights(const chain::WeightTable& a,
                         const chain::WeightTable& b, const char* what) {
  ASSERT_EQ(a.n(), b.n());
  for (std::size_t i = 0; i <= a.n(); ++i) {
    for (std::size_t j = i; j <= a.n(); ++j) {
      const double af = a.em1_f(i, j), bf = b.em1_f(i, j);
      const double as = a.em1_s(i, j), bs = b.em1_s(i, j);
      ASSERT_TRUE(same_doubles(&af, &bf, 1)) << what << " em1_f " << i;
      ASSERT_TRUE(same_doubles(&as, &bs, 1)) << what << " em1_s " << i;
    }
  }
}

void expect_same_rows(const SegmentRows& a, const SegmentRows& b,
                      std::size_t n, const char* what) {
  const std::size_t full = (n + 1) * (n + 1);
  EXPECT_TRUE(same_doubles(a.exv_row(0), b.exv_row(0), full)) << what;
  EXPECT_TRUE(same_doubles(a.b_row(0), b.b_row(0), full)) << what;
  EXPECT_TRUE(same_doubles(a.c_row(0), b.c_row(0), full)) << what;
  EXPECT_TRUE(same_doubles(a.d_row(0), b.d_row(0), full)) << what;
  EXPECT_TRUE(same_doubles(a.tl_row(0), b.tl_row(0), full)) << what;
  EXPECT_TRUE(same_doubles(a.pf_row(0), b.pf_row(0), full)) << what;
  EXPECT_TRUE(same_doubles(a.ef_row(0), b.ef_row(0), full)) << what;
  EXPECT_TRUE(same_doubles(a.w_row(0), b.w_row(0), full)) << what;
  EXPECT_TRUE(same_doubles(a.vp_data(), b.vp_data(), n + 1)) << what;
}

TEST(SegmentTablesParallelBuild, ByteIdenticalAtEveryThreadCount) {
  // The fills run as parallel_for over 64-row blocks; n = 63 is one
  // block, 64 and 65 straddle the first boundary, 300 has five blocks.
  const platform::Platform base_p = scaled_hera();
  platform::Platform next_p = base_p;
  next_p.lambda_f *= 1.08;
  next_p.lambda_s *= 1.06;
  for (const std::size_t n : {63, 64, 65, 300}) {
    const chain::TaskChain chain = chain::make_decrease(n, 25000.0);
    for (const bool weibull : {false, true}) {
      const platform::CostModel base =
          weibull ? weibull_costs(base_p, 0.7) : exp_costs(base_p);
      const platform::CostModel next =
          weibull ? weibull_costs(next_p, 0.7) : exp_costs(next_p);
      const char* what = weibull ? "weibull" : "exponential";
      util::set_parallelism(1);
      const TableSet serial(chain, base, next);
      for (const int threads : {4, 8}) {
        util::set_parallelism(threads);
        const TableSet parallel(chain, base, next);
        SCOPED_TRACE(testing::Message() << "n=" << n << " threads="
                                        << threads << " " << what);
        expect_same_weights(parallel.table, serial.table, "full");
        expect_same_weights(parallel.patched_table, serial.patched_table,
                            "patched");
        expect_identical(parallel.full, serial.full, "full");
        expect_identical(parallel.patched, serial.patched, "patched");
        expect_same_rows(parallel.rows, serial.rows, n, "rows");
      }
    }
  }
  util::set_parallelism(0);
}

}  // namespace
}  // namespace chainckpt::analysis
