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

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
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
  simd::with_kernels(tier, [&](auto kernels) {
    decltype(kernels)::affine(ev.data(), exvg.data(), b.data(), c.data(),
                              d.data(), k1, k2, lo, hi, r.best, r.arg);
  });
  return r;
}

FoldResult run_sum(SimdTier tier, const std::vector<double>& a,
                   const std::vector<double>& c, std::size_t lo,
                   std::size_t hi, double seed_best, std::int32_t seed_arg) {
  FoldResult r{seed_best, seed_arg};
  simd::with_kernels(tier, [&](auto kernels) {
    decltype(kernels)::sum(a.data(), c.data(), lo, hi, r.best, r.arg);
  });
  return r;
}

void run_fold(SimdTier tier, const std::vector<double>& row, double base,
              std::int32_t arg, std::vector<double>& run_best,
              std::vector<std::int32_t>& run_arg, std::size_t lo,
              std::size_t hi) {
  simd::with_kernels(tier, [&](auto kernels) {
    decltype(kernels)::fold(row.data(), base, arg, run_best.data(),
                            run_arg.data(), lo, hi);
  });
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

double unit(util::Xoshiro256& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
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

/// The min+index shapes: affine and sum share one vector loop.
enum class Shape { kAffine, kSum };

const char* shape_name(Shape shape) {
  return shape == Shape::kAffine ? "affine" : "sum";
}

/// Streams of every min+index shape over [0, len) on which each candidate
/// is exactly 3.0; set_minimum(i, true) drops index i's to exactly 2.0
/// and set_minimum(i, false) restores it.
struct TieStreams {
  static constexpr double kK1 = 2.0;
  static constexpr double kK2 = 2.0;
  // affine: 1 + (0.75 + 0.25*2 + 0.25*1 + 0.25*2) = 3
  std::vector<double> ev, exvg, coef;
  // sum: 1.5 + 1.5 = 3
  std::vector<double> a, c;

  explicit TieStreams(std::size_t len)
      : ev(len, 1.0), exvg(len, 0.75), coef(len, 0.25), a(len, 1.5),
        c(len, 1.5) {}

  void set_minimum(std::size_t i, bool on) {
    exvg[i] = on ? -0.25 : 0.75;
    a[i] = on ? 0.5 : 1.5;
  }

  FoldResult run(Shape shape, SimdTier tier, std::size_t lo, std::size_t hi,
                 double seed_best, std::int32_t seed_arg) const {
    if (shape == Shape::kAffine) {
      return run_affine(tier, ev, exvg, coef, coef, coef, kK1, kK2, lo, hi,
                        seed_best, seed_arg);
    }
    return run_sum(tier, a, c, lo, hi, seed_best, seed_arg);
  }
};

TEST(SimdKernels, TwoEqualMinimaPinLeftmostAcrossLanesAndTail) {
  // Every candidate 3.0 except two equal minima at a < b: each shape must
  // return a on every tier, wherever the pair falls -- same lane, across
  // lanes, across the vector body and the scalar tail.  Widths 2W - 1,
  // 2W and 2W + 1 straddle the vector entry test of both lane counts
  // (W = 4, 8); lo = 1 keeps the window unaligned.
  const auto tiers = supported_tiers();
  for (const std::size_t width : {3, 7, 8, 9, 15, 16, 17, 21, 37}) {
    const std::size_t lo = 1;
    const std::size_t hi = lo + width;
    TieStreams streams(hi);
    for (std::size_t a = lo; a < hi; ++a) {
      for (std::size_t b = a + 1; b < hi; ++b) {
        streams.set_minimum(a, true);
        streams.set_minimum(b, true);
        for (const Shape shape : {Shape::kAffine, Shape::kSum}) {
          for (SimdTier tier : tiers) {
            const std::string who = std::string(shape_name(shape)) + " @" +
                                    simd::tier_name(tier) + " width " +
                                    std::to_string(width) + " pair (" +
                                    std::to_string(a) + ", " +
                                    std::to_string(b) + ")";
            const FoldResult got =
                streams.run(shape, tier, lo, hi,
                            std::numeric_limits<double>::infinity(), -1);
            EXPECT_EQ(got.best, 2.0) << who;
            EXPECT_EQ(got.arg, static_cast<std::int32_t>(a)) << who;
            // A seed equal to the minimum must NOT be displaced.
            const FoldResult kept = streams.run(
                shape, tier, lo, hi, 2.0, static_cast<std::int32_t>(hi));
            EXPECT_EQ(kept.arg, static_cast<std::int32_t>(hi)) << who;
          }
        }
        streams.set_minimum(a, false);
        streams.set_minimum(b, false);
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
    const TieStreams streams(len);
    for (const Shape shape : {Shape::kAffine, Shape::kSum}) {
      for (SimdTier tier : tiers) {
        const std::string who = std::string(shape_name(shape)) + " @" +
                                simd::tier_name(tier) + " len " +
                                std::to_string(len);
        for (const std::size_t lo :
             {std::size_t{0}, std::size_t{1}, len / 2}) {
          const FoldResult got =
              streams.run(shape, tier, lo, len,
                          std::numeric_limits<double>::infinity(), -1);
          EXPECT_EQ(got.best, 3.0) << who;
          EXPECT_EQ(got.arg, static_cast<std::int32_t>(lo)) << who;
        }
        // A seed equal to the stream minimum must NOT be displaced.
        EXPECT_EQ(streams.run(shape, tier, 0, len, 3.0, -9).arg, -9) << who;
      }
    }
  }
}

// ---------------------------------------------------------------------
// affine_rows: kGroupRows affine folds on one column, one row each.

constexpr std::size_t kRows = simd::kGroupRows;
using RowFolds = std::array<FoldResult, kRows>;

/// kRows E_verif rows at `stride`, one column's coefficients and each
/// row's own (k1, k2).
struct RowGroupStreams {
  std::size_t stride;
  std::vector<double> ev;
  std::vector<double> exvg, b, c, d;
  double k1[kRows];
  double k2[kRows];

  explicit RowGroupStreams(std::size_t len)
      : stride(len + 3), ev(kRows * stride), exvg(len), b(len), c(len),
        d(len) {}

  double* row(std::size_t r) { return ev.data() + r * stride; }
};

RowFolds run_affine_rows(SimdTier tier, const RowGroupStreams& s,
                         std::size_t lo, std::size_t hi,
                         const RowFolds& seeds) {
  double best[kRows];
  std::int32_t arg[kRows];
  for (std::size_t r = 0; r < kRows; ++r) {
    best[r] = seeds[r].best;
    arg[r] = seeds[r].arg;
  }
  simd::with_kernels(tier, [&](auto kernels) {
    decltype(kernels)::affine_rows(s.ev.data(), s.stride, s.exvg.data(),
                                   s.b.data(), s.c.data(), s.d.data(), s.k1,
                                   s.k2, lo, hi, best, arg);
  });
  RowFolds out;
  for (std::size_t r = 0; r < kRows; ++r) out[r] = {best[r], arg[r]};
  return out;
}

/// The reference: kRows independent scalar affine folds.
RowFolds independent_affine(const RowGroupStreams& s, std::size_t lo,
                            std::size_t hi, const RowFolds& seeds) {
  RowFolds out = seeds;
  for (std::size_t r = 0; r < kRows; ++r) {
    simd::ScalarKernels::affine(s.ev.data() + r * s.stride, s.exvg.data(),
                                s.b.data(), s.c.data(), s.d.data(), s.k1[r],
                                s.k2[r], lo, hi, out[r].best, out[r].arg);
  }
  return out;
}

RowFolds unseeded() {
  RowFolds seeds;
  seeds.fill({std::numeric_limits<double>::infinity(), -1});
  return seeds;
}

void expect_same_folds(const RowFolds& want, const RowFolds& got,
                       const std::string& who) {
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(want[r].best, got[r].best) << who << " row " << r;
    EXPECT_EQ(want[r].arg, got[r].arg) << who << " row " << r;
  }
}

/// Windows of 0 ... 2W + 1 for both lane counts, then long ones.
std::vector<std::size_t> row_group_widths() {
  std::vector<std::size_t> widths;
  for (std::size_t w = 0; w <= 2 * simd::kMaxLanes + 1; ++w) {
    widths.push_back(w);
  }
  for (const std::size_t w : {37, 64, 129, 300}) widths.push_back(w);
  return widths;
}

TEST(SimdKernels, AffineRowsMatchesIndependentScalarFolds) {
  // Random and tie-dense streams, each row with its own (k1, k2); half
  // the rows come in seeded with their own minimum, which an equal
  // candidate must not displace.
  const auto tiers = supported_tiers();
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x55);
  for (const std::size_t width : row_group_widths()) {
    for (const std::size_t lo : {std::size_t{0}, std::size_t{3}}) {
      for (const bool ties : {false, true}) {
        const std::size_t hi = lo + width;
        RowGroupStreams s(hi);
        if (ties) {
          fill_tie_dense(rng, s.ev);
          fill_tie_dense(rng, s.exvg);
          fill_tie_dense(rng, s.b);
          fill_tie_dense(rng, s.c);
          fill_tie_dense(rng, s.d);
        } else {
          fill_random(rng, s.ev, 1e4);
          fill_random(rng, s.exvg, 1e4);
          fill_random(rng, s.b, 2.0);
          fill_random(rng, s.c, 2.0);
          fill_random(rng, s.d, 2.0);
        }
        for (std::size_t r = 0; r < kRows; ++r) {
          // Dyadic k's keep the tie-dense candidates exact.
          s.k1[r] = ties ? 0.5 * static_cast<double>(1 + rng() % 4)
                         : 1e3 * unit(rng);
          s.k2[r] = ties ? 0.25 * static_cast<double>(1 + rng() % 4)
                         : 1e2 * unit(rng);
        }
        const RowFolds fresh = independent_affine(s, lo, hi, unseeded());
        RowFolds seeds = unseeded();
        for (std::size_t r = 1; r < kRows; r += 2) {
          seeds[r] = {fresh[r].best, -7};
        }
        const RowFolds want = independent_affine(s, lo, hi, seeds);
        for (SimdTier tier : tiers) {
          const std::string who = std::string(ties ? "ties" : "random") +
                                  " [" + std::to_string(lo) + ", " +
                                  std::to_string(hi) + ") @" +
                                  simd::tier_name(tier);
          expect_same_folds(fresh, run_affine_rows(tier, s, lo, hi,
                                                   unseeded()),
                            who);
          expect_same_folds(want, run_affine_rows(tier, s, lo, hi, seeds),
                            who + " seeded");
        }
      }
    }
  }
}

TEST(SimdKernels, AffineRowsEqualMinimaPinLeftmostPerRow) {
  // Every candidate of a row ties except two equal minima at a < b on one
  // row: that row must return a and every other row its window's first
  // index, on every tier, wherever the pair falls -- same lane, across
  // lanes, across the vector body and the scalar tail.  A seed equal to a
  // row's minimum stays.
  const auto tiers = supported_tiers();
  for (const std::size_t width : {3, 7, 8, 9, 15, 16, 17, 21, 37}) {
    const std::size_t lo = 1;
    const std::size_t hi = lo + width;
    RowGroupStreams s(hi);
    // ev = 1: 1 + (0.75 + 0.25*k1 + 0.25 + 0.25*k2); ev = 0.5 is lower.
    std::fill(s.ev.begin(), s.ev.end(), 1.0);
    std::fill(s.exvg.begin(), s.exvg.end(), 0.75);
    std::fill(s.b.begin(), s.b.end(), 0.25);
    std::fill(s.c.begin(), s.c.end(), 0.25);
    std::fill(s.d.begin(), s.d.end(), 0.25);
    for (std::size_t r = 0; r < kRows; ++r) {
      s.k1[r] = 0.5 * static_cast<double>(r + 1);
      s.k2[r] = 2.0 - 0.125 * static_cast<double>(r);
    }
    std::size_t pair = 0;
    for (std::size_t a = lo; a < hi; ++a) {
      for (std::size_t b = a + 1; b < hi; ++b, ++pair) {
        const std::size_t row = pair % kRows;
        s.row(row)[a] = 0.5;
        s.row(row)[b] = 0.5;
        const RowFolds want = independent_affine(s, lo, hi, unseeded());
        RowFolds kept;
        for (std::size_t r = 0; r < kRows; ++r) {
          kept[r] = {want[r].best, static_cast<std::int32_t>(hi)};
        }
        for (SimdTier tier : tiers) {
          const std::string who = std::string(simd::tier_name(tier)) +
                                  " width " + std::to_string(width) +
                                  " row " + std::to_string(row) + " pair (" +
                                  std::to_string(a) + ", " +
                                  std::to_string(b) + ")";
          const RowFolds got = run_affine_rows(tier, s, lo, hi, unseeded());
          expect_same_folds(want, got, who);
          for (std::size_t r = 0; r < kRows; ++r) {
            EXPECT_EQ(got[r].arg,
                      static_cast<std::int32_t>(r == row ? a : lo))
                << who << " row " << r;
          }
          expect_same_folds(kept, run_affine_rows(tier, s, lo, hi, kept),
                            who + " seeded");
        }
        s.row(row)[a] = 1.0;
        s.row(row)[b] = 1.0;
      }
    }
  }
}

// ---------------------------------------------------------------------
// partial: one whole ADMV inner-DP scan, one v1 per lane.

/// The streams of one partial scan over v1 in [lo, hi): SegmentRows-shaped
/// rows at stride hi + 1, the columns to j = hi, E_verif by v1 (poisoned
/// past hi), and the scan context.
struct PartialStreams {
  std::size_t stride;
  std::vector<double> exv, b, c, d, tl, pf, ef, w;
  std::vector<double> vp, fs_to_j, c_to_j, everif;
  double upgrade = 0.0;
  double g = 0.0;
  double k1 = 0.0;
  double rm_hit = 0.0;
  double r_mem = 0.0;

  explicit PartialStreams(std::size_t hi)
      : stride(hi + 1),
        exv(stride * stride), b(stride * stride), c(stride * stride),
        d(stride * stride), tl(stride * stride), pf(stride * stride),
        ef(stride * stride, 1.0), w(stride * stride), vp(stride),
        fs_to_j(stride), c_to_j(stride),
        // Past hi: a poison no fold may pick.
        everif(hi + simd::kMaxLanes, kPoison) {}

  simd::PartialScan scan() const {
    return {exv.data(), b.data(),  c.data(),       d.data(),
            tl.data(),  pf.data(), ef.data(),      w.data(),
            stride,     vp.data(), fs_to_j.data(), c_to_j.data(),
            upgrade,    g,         k1,             rm_hit,
            r_mem};
  }

  static constexpr double kPoison = -1e300;
};

/// A partial scan's fold result and the lanes' state it leaves behind.
struct PartialRun {
  FoldResult fold;
  std::size_t lane_stride;
  std::vector<double> ep;
  std::vector<std::int32_t> next;

  /// Lane k's next chain from its own first row, v1 = lo + k.
  std::vector<std::int32_t> chain(std::size_t lo, std::size_t hi,
                                  std::size_t k) const {
    std::vector<std::int32_t> out;
    for (std::size_t p = lo + k; p < hi;) {
      const std::int32_t to = next[(p - lo) * lane_stride + k];
      out.push_back(to);
      if (to <= static_cast<std::int32_t>(p)) break;  // broken chain
      p = static_cast<std::size_t>(to);
    }
    return out;
  }
};

/// Runs K::partial at `tier` on buffers poisoned everywhere, padded lanes
/// and rows past the scan included: an active lane that read a cell no
/// earlier row wrote, or a fold that read a padded lane, would surface.
PartialRun run_partial(SimdTier tier, const PartialStreams& streams,
                       std::size_t lo, std::size_t hi, double seed_best,
                       std::int32_t seed_arg) {
  const std::size_t lane_stride = simd::partial_lane_stride(hi - lo);
  const std::size_t cells = (lane_stride + 1) * lane_stride;
  std::vector<double> pp(hi + 1, PartialStreams::kPoison);
  std::vector<double> qq = pp;
  std::vector<double> rr = pp;
  std::vector<double> ev(lane_stride, PartialStreams::kPoison);
  std::vector<double> er(cells, PartialStreams::kPoison);
  PartialRun run{{seed_best, seed_arg},
                 lane_stride,
                 std::vector<double>(cells, PartialStreams::kPoison),
                 std::vector<std::int32_t>(cells, -5)};
  const simd::PartialLanes lanes{pp.data(), qq.data(),     rr.data(),
                                 ev.data(), run.ep.data(), er.data(),
                                 run.next.data()};
  simd::with_kernels(tier, [&](auto kernels) {
    decltype(kernels)::partial(streams.scan(), streams.everif.data(), lo, hi,
                               lanes, run.fold.best, run.fold.arg);
  });
  return run;
}

/// Random streams at the DP's magnitudes, or (ties) streams drawn from a
/// few dyadic levels, so that distinct hops and distinct v1 collide
/// exactly.
PartialStreams make_partial_streams(util::Xoshiro256& rng, std::size_t hi,
                                    bool ties) {
  PartialStreams s(hi);
  const auto level = [&](std::initializer_list<double> levels) {
    return *(levels.begin() + rng() % levels.size());
  };
  const auto fill = [&](std::vector<double>& v, std::size_t count,
                        double scale, double lowest) {
    for (std::size_t i = 0; i < count; ++i) {
      v[i] = ties ? level({0.25, 0.5, 1.0}) : lowest + scale * unit(rng);
    }
  };
  const std::size_t cells = s.stride * s.stride;
  fill(s.exv, cells, 1e4, 0.0);
  fill(s.b, cells, 2.0, 0.0);
  fill(s.c, cells, 2.0, 0.0);
  fill(s.d, cells, 2.0, 0.0);
  fill(s.tl, cells, 1e3, 0.0);
  fill(s.pf, cells, 1.0, 0.0);
  fill(s.w, cells, 1e3, 0.0);
  fill(s.vp, s.stride, 20.0, 0.0);
  fill(s.c_to_j, s.stride, 2.0, 0.0);
  fill(s.everif, hi, 1e4, 0.0);
  for (std::size_t i = 0; i < cells; ++i) {
    s.ef[i] = ties ? level({1.0, 2.0}) : 1.0 + unit(rng);
  }
  for (std::size_t i = 0; i < s.stride; ++i) {
    s.fs_to_j[i] = ties ? level({1.0, 2.0}) : 1.0 + 2.0 * unit(rng);
  }
  s.g = ties ? 0.5 : unit(rng);
  s.k1 = ties ? 2.0 : 1e3 * unit(rng);
  s.r_mem = ties ? 1.0 : 1e2 * unit(rng);
  s.rm_hit = (1.0 - s.g) * s.r_mem;
  s.upgrade = ties ? 0.25 : 50.0 * unit(rng);
  return s;
}

/// The scan lengths of the partial battery: every length through two
/// 8-lane groups plus three (2W + 3 for W = 4 and 8), then 37.
std::vector<std::size_t> partial_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t len = 1; len <= 2 * simd::kMaxLanes + 3; ++len) {
    lengths.push_back(len);
  }
  lengths.push_back(37);
  return lengths;
}

TEST(SimdKernels, PartialMatchesScalarOnRandomAndTieDenseStreams) {
  const auto tiers = supported_tiers();
  util::Xoshiro256 rng(bench::kBenchSeed ^ 0x54);
  for (const std::size_t len : partial_lengths()) {
    for (const std::size_t lo : {std::size_t{0}, std::size_t{3}}) {
      for (const bool ties : {false, true}) {
        const std::size_t hi = lo + len;
        const PartialStreams streams = make_partial_streams(rng, hi, ties);
        const std::string where = std::string(ties ? "ties" : "random") +
                                  " [" + std::to_string(lo) + ", " +
                                  std::to_string(hi) + ")";
        const PartialRun want = run_partial(
            SimdTier::kScalar, streams, lo, hi,
            std::numeric_limits<double>::infinity(), -1);
        ASSERT_GE(want.fold.arg, static_cast<std::int32_t>(lo)) << where;
        ASSERT_LT(want.fold.arg, static_cast<std::int32_t>(hi)) << where;
        for (SimdTier tier : tiers) {
          const std::string who = where + " @" + simd::tier_name(tier);
          const PartialRun got =
              run_partial(tier, streams, lo, hi,
                          std::numeric_limits<double>::infinity(), -1);
          EXPECT_EQ(want.fold.best, got.fold.best) << who;
          EXPECT_EQ(want.fold.arg, got.fold.arg) << who;
          for (std::size_t k = 0; k < len; ++k) {
            EXPECT_EQ(want.chain(lo, hi, k), got.chain(lo, hi, k))
                << who << " lane " << k;
            EXPECT_EQ(want.ep[k * (want.lane_stride + 1)],
                      got.ep[k * (got.lane_stride + 1)])
                << who << " lane " << k;
          }
          // A seed equal to the fold's minimum must NOT be displaced.
          const PartialRun kept =
              run_partial(tier, streams, lo, hi, want.fold.best, -7);
          EXPECT_EQ(kept.fold.arg, -7) << who;
        }
      }
    }
  }
}

/// Streams on which every hop row of [lo, hi) closes with the terminal
/// choice at exactly 1.0 and every hop costs exactly 2.0, except on row
/// `row`, where set_hop(p2, x) prices hop (row, p2] at exactly 1.0 + x.
/// E_verif is 0 everywhere, so every v1 ties at 1.0 in the v1 fold
/// unless row's E_partial drops below it.
struct HopTieStreams {
  PartialStreams s;
  std::size_t row;

  HopTieStreams(std::size_t lo, std::size_t hi, std::size_t row_in)
      : s(hi), row(row_in) {
    // b = c = d = 0: P = exv * fs with fs = 1, Q = R = 0, T = exv_j.
    for (std::size_t p1 = 0; p1 < hi; ++p1) {
      for (std::size_t p2 = p1 + 1; p2 <= hi; ++p2) {
        s.exv[p1 * s.stride + p2] = 1.0;
        s.pf[p1 * s.stride + p2] = 0.5;
        s.tl[p1 * s.stride + p2] = 1.0;
        s.w[p1 * s.stride + p2] = 1.0;
      }
    }
    s.fs_to_j.assign(s.stride, 1.0);
    s.vp.assign(s.stride, 1.0);
    s.g = 0.5;
    s.k1 = 2.0;
    s.r_mem = 1.0;
    s.rm_hit = 0.5;
    for (std::size_t v1 = lo; v1 < hi; ++v1) s.everif[v1] = 0.0;
  }

  void set_hop(std::size_t p2, double x) {
    s.exv[row * s.stride + p2] = x;
  }
};

TEST(SimdKernels, PartialTiesKeepTheSeedAndTheLowerHop) {
  // Every lane folds its own hops: on row `row`, two equal cheapest hops
  // a < b must leave a as every active lane's choice, and a hop that only
  // equals the terminal seed must leave the terminal choice p2 = hi --
  // at every tier, wherever the lanes fall in their groups.
  const auto tiers = supported_tiers();
  for (const std::size_t len : partial_lengths()) {
    const std::size_t lo = 1;
    const std::size_t hi = lo + len;
    for (const std::size_t row : {lo, lo + len / 2}) {
      HopTieStreams streams(lo, hi, row);
      for (std::size_t a = row + 1; a < hi; ++a) {
        for (std::size_t b = a + 1; b < hi; b += 3) {
          streams.set_hop(a, -0.5);
          streams.set_hop(b, -0.5);
          for (SimdTier tier : tiers) {
            const std::string who =
                std::string(simd::tier_name(tier)) + " [" +
                std::to_string(lo) + ", " + std::to_string(hi) + ") row " +
                std::to_string(row) + " hops " + std::to_string(a) + ", " +
                std::to_string(b);
            const PartialRun got =
                run_partial(tier, streams.s, lo, hi,
                            std::numeric_limits<double>::infinity(), -1);
            for (std::size_t k = 0; k <= row - lo; ++k) {
              EXPECT_EQ(got.next[(row - lo) * got.lane_stride + k],
                        static_cast<std::int32_t>(a))
                  << who << " lane " << k;
            }
            EXPECT_EQ(got.fold.best, 0.5) << who;
            EXPECT_EQ(got.fold.arg, static_cast<std::int32_t>(row)) << who;
          }
          streams.set_hop(a, 1.0);
          streams.set_hop(b, 1.0);
        }
        // Hop (row, a] ties the terminal choice at 1.0: the seed stays.
        streams.set_hop(a, 0.0);
        for (SimdTier tier : tiers) {
          const PartialRun got =
              run_partial(tier, streams.s, lo, hi,
                          std::numeric_limits<double>::infinity(), -1);
          for (std::size_t k = 0; k <= row - lo; ++k) {
            EXPECT_EQ(got.next[(row - lo) * got.lane_stride + k],
                      static_cast<std::int32_t>(hi))
                << simd::tier_name(tier) << " row " << row << " hop " << a
                << " lane " << k;
          }
        }
        streams.set_hop(a, 1.0);
      }
    }
  }
}

TEST(SimdKernels, PartialAllEqualFoldPinsLowestV1AndNoPaddedLane) {
  // Every v1 ties at 1.0: the fold MUST return lo on every tier, and no
  // padded lane (v1 >= hi, poisoned to win any fold that read it) may
  // ever be chosen.  A seed equal to the minimum stays.
  const auto tiers = supported_tiers();
  for (const std::size_t len : partial_lengths()) {
    for (const std::size_t lo : {std::size_t{0}, std::size_t{1}}) {
      const std::size_t hi = lo + len;
      const HopTieStreams streams(lo, hi, lo);
      for (SimdTier tier : tiers) {
        const std::string who = std::string(simd::tier_name(tier)) + " [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + ")";
        const PartialRun got =
            run_partial(tier, streams.s, lo, hi,
                        std::numeric_limits<double>::infinity(), -1);
        EXPECT_EQ(got.fold.best, 1.0) << who;
        EXPECT_EQ(got.fold.arg, static_cast<std::int32_t>(lo)) << who;
        EXPECT_EQ(run_partial(tier, streams.s, lo, hi, 1.0, -9).fold.arg, -9)
            << who;
      }
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
