// Thread-count fence on the table builds: a WeightTable, its
// SegmentTables and the ADMV SegmentRows must come out BYTE-identical
// (memcmp) at every util::set_parallelism() count, for the exponential
// and the Weibull build paths alike.  The fills run on the helper pool as
// row blocks, and the DP kernels consume the streams verbatim, so
// byte-identity here is what keeps every solve's plan and objective
// independent of the thread count.
#include "analysis/segment_tables.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "chain/patterns.hpp"
#include "chain/weight_table.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"

namespace chainckpt::analysis {
namespace {

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
void expect_identical(const SegmentTables& a, const SegmentTables& b) {
  ASSERT_EQ(a.n(), b.n());
  const std::size_t n = a.n();
  const std::size_t full = (n + 1) * (n + 1);
  EXPECT_TRUE(same_doubles(a.exvg_col(0), b.exvg_col(0), full)) << "exvg";
  EXPECT_TRUE(same_doubles(a.b_col(0), b.b_col(0), full)) << "b_col";
  EXPECT_TRUE(same_doubles(a.c_col(0), b.c_col(0), full)) << "c_col";
  EXPECT_TRUE(same_doubles(a.d_col(0), b.d_col(0), full)) << "d_col";
  EXPECT_TRUE(same_doubles(a.fs_col(0), b.fs_col(0), full)) << "fs_col";
  for (std::size_t i = 1; i <= n; ++i) {
    const double ag = a.vg_after(i), bg = b.vg_after(i);
    EXPECT_TRUE(same_doubles(&ag, &bg, 1)) << "vg[" << i << "]";
  }
}

void expect_same_weights(const chain::WeightTable& a,
                         const chain::WeightTable& b) {
  ASSERT_EQ(a.n(), b.n());
  for (std::size_t i = 0; i <= a.n(); ++i) {
    for (std::size_t j = i; j <= a.n(); ++j) {
      const double af = a.em1_f(i, j), bf = b.em1_f(i, j);
      const double as = a.em1_s(i, j), bs = b.em1_s(i, j);
      ASSERT_TRUE(same_doubles(&af, &bf, 1)) << "em1_f " << i;
      ASSERT_TRUE(same_doubles(&as, &bs, 1)) << "em1_s " << i;
    }
  }
}

void expect_same_rows(const SegmentRows& a, const SegmentRows& b,
                      std::size_t n) {
  const std::size_t full = (n + 1) * (n + 1);
  EXPECT_TRUE(same_doubles(a.exv_row(0), b.exv_row(0), full)) << "exv";
  EXPECT_TRUE(same_doubles(a.b_row(0), b.b_row(0), full)) << "b_row";
  EXPECT_TRUE(same_doubles(a.c_row(0), b.c_row(0), full)) << "c_row";
  EXPECT_TRUE(same_doubles(a.d_row(0), b.d_row(0), full)) << "d_row";
  EXPECT_TRUE(same_doubles(a.tl_row(0), b.tl_row(0), full)) << "tl_row";
  EXPECT_TRUE(same_doubles(a.pf_row(0), b.pf_row(0), full)) << "pf_row";
  EXPECT_TRUE(same_doubles(a.ef_row(0), b.ef_row(0), full)) << "ef_row";
  EXPECT_TRUE(same_doubles(a.w_row(0), b.w_row(0), full)) << "w_row";
  EXPECT_TRUE(same_doubles(a.vp_data(), b.vp_data(), n + 1)) << "vp";
}

/// Every table a solve builds for one chain and one cost model: the
/// WeightTable + SegmentTables pair and the ADMV row streams.
struct TableSet {
  TableSet(const chain::TaskChain& chain, const platform::CostModel& costs)
      : table(chain, costs.lambda_f(), costs.lambda_s()),
        columns(table, costs),
        rows(table, costs) {}

  chain::WeightTable table;
  SegmentTables columns;
  SegmentRows rows;
};

TEST(SegmentTablesParallelBuild, ByteIdenticalAtEveryThreadCount) {
  // The fills run as parallel_for over 64-row blocks; n = 63 is one
  // block, 64 and 65 straddle the first boundary, 300 has five blocks.
  const platform::Platform p = scaled_hera();
  for (const std::size_t n : {63, 64, 65, 300}) {
    const chain::TaskChain chain = chain::make_decrease(n, 25000.0);
    for (const bool weibull : {false, true}) {
      platform::CostModel costs(p);
      if (weibull) {
        costs.set_planning_law({platform::FailureLaw::kWeibull, 0.7});
      }
      util::set_parallelism(1);
      const TableSet serial(chain, costs);
      for (const int threads : {4, 8}) {
        util::set_parallelism(threads);
        const TableSet parallel(chain, costs);
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " threads=" << threads << " "
                     << (weibull ? "weibull" : "exponential"));
        expect_same_weights(parallel.table, serial.table);
        expect_identical(parallel.columns, serial.columns);
        expect_same_rows(parallel.rows, serial.rows, n);
      }
    }
  }
  util::set_parallelism(0);
}

}  // namespace
}  // namespace chainckpt::analysis
