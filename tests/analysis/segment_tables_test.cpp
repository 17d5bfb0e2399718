// Two fences on the table builds, for the exponential and the Weibull
// build paths alike:
//   * thread count: the SegmentTables and the ADMV SegmentRows must come
//     out BYTE-identical (memcmp) at every util::set_parallelism() count.
//     The fills run on the helper pool as row blocks, and the DP kernels
//     consume the streams verbatim, so byte-identity here is what keeps
//     every solve's plan and objective independent of the thread count;
//   * one interval source: every stored cell equals its closed-form
//     expression on make_interval / make_law_interval of the same (i, j),
//     bit for bit -- the equality the evaluator's "DP value == re-score"
//     contract rests on.
#include "analysis/segment_tables.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <map>
#include <string>

#include "analysis/segment_math.hpp"
#include "chain/patterns.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

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

/// Byte comparison of every stored cell of every stream the two tables
/// expose: column j holds i in [0, j], so j + 1 doubles per column.
void expect_identical(const SegmentTables& a, const SegmentTables& b) {
  ASSERT_EQ(a.n(), b.n());
  const std::size_t n = a.n();
  for (std::size_t j = 0; j <= n; ++j) {
    const std::size_t stored = j + 1;
    EXPECT_TRUE(same_doubles(a.exvg_col(j), b.exvg_col(j), stored))
        << "exvg col " << j;
    EXPECT_TRUE(same_doubles(a.b_col(j), b.b_col(j), stored))
        << "b col " << j;
    EXPECT_TRUE(same_doubles(a.c_col(j), b.c_col(j), stored))
        << "c col " << j;
    EXPECT_TRUE(same_doubles(a.d_col(j), b.d_col(j), stored))
        << "d col " << j;
    EXPECT_TRUE(same_doubles(a.fs_col(j), b.fs_col(j), stored))
        << "fs col " << j;
  }
  for (std::size_t i = 1; i <= n; ++i) {
    const double ag = a.vg_after(i), bg = b.vg_after(i);
    EXPECT_TRUE(same_doubles(&ag, &bg, 1)) << "vg[" << i << "]";
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
/// SegmentTables and the ADMV row streams.
struct TableSet {
  TableSet(const chain::TaskChain& chain, const platform::CostModel& costs)
      : columns(chain, costs), rows(chain, costs) {}

  SegmentTables columns;
  SegmentRows rows;
};

TEST(SegmentTablesParallelBuild, ByteIdenticalAtEveryThreadCount) {
  // The fills run as parallel_for over ceil((n + 1) / 64) blocks of equal
  // cell counts (util::parallel_for_rows): n = 63 is one serial block,
  // n = 64 the first split (at row 20), n = 127 and 128 step from two
  // blocks to three, n = 300 has five, and n = 800 (wire_heavy's largest
  // chain) has thirteen.
  const platform::Platform p = scaled_hera();
  for (const std::size_t n : {63, 64, 127, 128, 300, 800}) {
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
        expect_identical(parallel.columns, serial.columns);
        expect_same_rows(parallel.rows, serial.rows, n);
      }
    }
  }
  util::set_parallelism(0);
}

TEST(SegmentTablesBlock, HoldsExactlyThePackedStreams) {
  // One block per table: five packed triangles of (n+1)(n+2)/2 cells plus
  // the n + 1 vg entries, and each stream's column j starts j(j+1)/2 cells
  // into it.
  const platform::CostModel costs(scaled_hera());
  for (const std::size_t n : {1, 40, 800}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const SegmentTables t(chain::make_decrease(n, 25000.0), costs);
    const std::size_t cells = (n + 1) * (n + 2) / 2;
    EXPECT_EQ(t.resident_bytes(), sizeof(double) * (5 * cells + (n + 1)));
    EXPECT_EQ(t.exvg_col(n) - t.exvg_col(0),
              static_cast<std::ptrdiff_t>(n * (n + 1) / 2));
    EXPECT_EQ(t.b_col(0) - t.exvg_col(0), static_cast<std::ptrdiff_t>(cells));
    EXPECT_EQ(t.fs_col(0) - t.exvg_col(0),
              static_cast<std::ptrdiff_t>(4 * cells));
  }
}

/// Compares every cell of both orientations against the closed-form
/// expressions on `interval(i, j)` (an Interval or a LawInterval) and
/// reports the first mismatch of each stream.  `x_of` and `tl_of` give
/// the law's (e^{lf W} - 1)/lf and T_lost terms of an interval.
template <typename MakeInterval, typename XOf, typename TlOf>
void expect_cells_match_intervals(const TableSet& tables,
                                  const platform::CostModel& costs,
                                  std::size_t n, MakeInterval&& interval,
                                  XOf&& x_of, TlOf&& tl_of) {
  std::map<std::string, std::string> first_mismatch;  // stream -> (i, j]
  const auto check = [&](const char* stream, double got, double want,
                         std::size_t i, std::size_t j) {
    if (same_doubles(&got, &want, 1)) return;
    first_mismatch.emplace(stream, "(" + std::to_string(i) + ", " +
                                       std::to_string(j) + "]");
  };
  const SegmentTables& cols = tables.columns;
  const SegmentRows& rows = tables.rows;
  for (std::size_t j = 1; j <= n; ++j) {
    for (std::size_t i = 0; i <= j; ++i) {
      const auto seg = interval(i, j);
      const double x = x_of(seg);
      check("d", cols.d_col(j)[i], seg.em1_s, i, j);
      check("c", cols.c_col(j)[i], seg.em1_fs(), i, j);
      check("fs", cols.fs_col(j)[i], seg.exp_fs(), i, j);
      check("b", cols.b_col(j)[i], seg.exp_s() * seg.em1_f, i, j);
      check("exvg", cols.exvg_col(j)[i],
            seg.exp_s() * (x + costs.v_guaranteed_after(j)), i, j);
      check("exv", rows.exv_row(i)[j],
            seg.exp_s() * (x + costs.v_partial_after(j)), i, j);
      check("pf", rows.pf_row(i)[j], seg.em1_f / seg.exp_f(), i, j);
      check("ef", rows.ef_row(i)[j], seg.exp_f(), i, j);
      check("tl", rows.tl_row(i)[j], tl_of(seg), i, j);
      check("w", rows.w_row(i)[j], seg.w, i, j);
    }
  }
  for (const auto& [stream, where] : first_mismatch) {
    ADD_FAILURE() << stream << " differs first at " << where;
  }
}

TEST(SegmentTablesIntervalSource, CellsEqualTheirIntervalExpressionsBitwise) {
  // A random chain's prefix differences W(t-1, t) are not always its raw
  // weights w_t bit for bit; the fence needs at least one such task, so a
  // fill (or a WeibullLawTasks hazard) reading w_t instead of the prefix
  // difference shows up here.
  util::Xoshiro256 rng(20261018ULL);
  const std::size_t n = 40;
  const chain::TaskChain chain = chain::make_random(n, 25000.0, rng);
  std::size_t rounded_tasks = 0;
  for (std::size_t t = 1; t <= n; ++t) {
    const double diff = chain.weight_between(t - 1, t);
    const double raw = chain.weight(t);
    if (!same_doubles(&diff, &raw, 1)) ++rounded_tasks;
  }
  ASSERT_GT(rounded_tasks, 0u);

  const platform::Platform p = scaled_hera();
  {
    SCOPED_TRACE("exponential");
    const platform::CostModel costs(p);
    const double lf = costs.lambda_f();
    expect_cells_match_intervals(
        TableSet(chain, costs), costs, n,
        [&](std::size_t i, std::size_t j) {
          return make_interval(chain, costs, i, j);
        },
        [&](const Interval& seg) { return em1f_over_lambda(seg, lf); },
        [&](const Interval& seg) {
          return util::expected_time_lost(lf, seg.w);
        });
  }
  {
    SCOPED_TRACE("weibull");
    const double shape = 0.7;
    platform::CostModel costs(p);
    costs.set_planning_law({platform::FailureLaw::kWeibull, shape});
    const WeibullLawTasks tasks(chain, costs);
    // The hazards read the prefix differences too.
    const double theta =
        1.0 / (p.lambda_f * std::tgamma(1.0 + 1.0 / shape));
    for (std::size_t t = 1; t <= n; ++t) {
      const double want = std::pow(chain.weight_between(t - 1, t) / theta,
                                   shape);
      const double got = tasks.rho(t);
      EXPECT_TRUE(same_doubles(&got, &want, 1)) << "rho(" << t << ")";
    }
    expect_cells_match_intervals(
        TableSet(chain, costs), costs, n,
        [&](std::size_t i, std::size_t j) {
          return make_law_interval(chain, costs, tasks, i, j);
        },
        [](const LawInterval& seg) { return seg.x; },
        [](const LawInterval& seg) { return seg.t_lost; });
  }
}

}  // namespace
}  // namespace chainckpt::analysis
