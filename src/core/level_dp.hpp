// Internal: the three-level dynamic program shared by ADMV* and ADMV.
//
// Both algorithms share the disk / memory / guaranteed-verification levels
// (paper Figures 1-3):
//
//   E_disk(d2)    = min_{0 <= d1 < d2} E_disk(d1) + E_mem(d1, d2) + C_D
//   E_mem(d1,m2)  = min_{d1 <= m1 < m2} E_mem(d1,m1)
//                                       + E_verif(d1,m1,m2) + C_M
//   E_verif(d1,m1,v2) = min_{m1 <= v1 < v2} E_verif(d1,m1,v1)
//                                           + <segment>(d1,m1,v1,v2)
//
// and differ only in <segment>: Eq. (4) for ADMV*, the E_partial inner DP
// for ADMV.  The inner v1 scan is injected as a template parameter (see
// the ColumnScanner contract below) so there is zero dispatch cost in the
// innermost loop and each algorithm can fuse its segment formula into a
// branch-light kernel over flat SoA arrays (analysis::SegmentTables).
//
// Hot-path structure (per fixed d1, increasing right endpoint j):
// E_verif(d1, m1, j) consumes E_mem(d1, m1) and E_verif(d1, m1, v1 < j),
// both finalized at earlier j; different d1 slabs are fully independent,
// which is what the parallelization exploits.  Each slab runs on a
// contiguous scratch plane (the SlabScratch of the participant that
// claimed it) so the v1 scans read unit-stride rows and the m1-scan of the
// E_mem pass reads a gathered contiguous column.  E_verif lives only in
// that plane (plan extraction recomputes the rows it needs); the O(n^2)
// tables (E_mem, E_disk, argmins) always live in a SolveCheckpoint -- the
// one the caller attached, or a solve-local one -- so every solve commits
// its slabs the same way.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/cancellation.hpp"
#include "core/dp_context.hpp"
#include "core/simd/argmin_kernels.hpp"
#include "core/solve_checkpoint.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core::detail {

struct LevelTables {
  std::size_t n = 0;
  /// E_mem(d1, m2), flattened over (n+1)^2; valid for d1<=m2.
  std::vector<double> emem;
  std::vector<std::int32_t> best_m1;
  /// E_disk(d2) over n+1 entries.
  std::vector<double> edisk;
  std::vector<std::int32_t> best_d1;

  explicit LevelTables(std::size_t n_in)
      : n(n_in),
        emem((n + 1) * (n + 1), std::numeric_limits<double>::quiet_NaN()),
        best_m1((n + 1) * (n + 1), -1),
        edisk(n + 1, std::numeric_limits<double>::quiet_NaN()),
        best_d1(n + 1, -1) {}

  std::size_t idx2(std::size_t d1, std::size_t m2) const {
    return d1 * (n + 1) + m2;
  }

  double emem_at(std::size_t d1, std::size_t m2) const {
    return emem[idx2(d1, m2)];
  }
};

/// Per-slab scratch: the (m1, v1) plane of E_verif values for the current
/// d1 kept contiguous and cache-hot, the E_verif(d1, ·, j) column gathered
/// for the E_mem scan, and ADMV's lane buffers (simd::PartialLanes).  Each
/// part is sized on first use; every user within one solve asks for the
/// same n.
struct SlabScratch {
  std::vector<double> plane;
  std::vector<double> column;
  // O(n): the current hop row's P/Q/R and E_verif by lane.
  std::vector<double> pp;
  std::vector<double> qq;
  std::vector<double> rr;
  std::vector<double> ev;
  // O(n^2): every lane's recursion state.
  std::vector<double> ep;
  std::vector<double> er;
  std::vector<std::int32_t> next;

  void ensure(std::size_t n) {
    if (plane.empty()) {
      plane.resize((n + 1) * (n + 1));
      column.resize(n + 1);
    }
  }

  simd::PartialLanes partial_lanes(std::size_t n) {
    if (pp.empty()) {
      const std::size_t lanes = simd::partial_lane_stride(n);
      pp.resize(n + 1);
      qq.resize(n + 1);
      rr.resize(n + 1);
      ev.resize(lanes);
      ep.resize((n + 1) * lanes);
      er.resize((n + 1) * lanes);
      next.resize((n + 1) * lanes);
    }
    return {pp.data(), qq.data(), rr.data(), ev.data(),
            ep.data(), er.data(), next.data()};
  }
};

/// ColumnScanner contract:
///   void operator()(SlabScratch& scratch, std::size_t d1, std::size_t m1,
///                   std::size_t j, double emem_at_m1,
///                   const double* everif_row, double& best,
///                   std::int32_t& best_arg) const;
/// where everif_row[v1] = E_verif(d1, m1, v1) for v1 in [m1, j), unit
/// stride, and `scratch` is the calling thread's own (the scanner may use
/// its lane buffers, never its plane or column).  The scanner must fold the candidates
///   E_verif(d1, m1, v1) + <segment>(d1, m1, v1, j)
/// for every v1 in [m1, j) into `best`/`best_arg` with the strict-less
/// leftmost-argmin rule (matching the determinism contract); callers seed
/// best = +inf, best_arg = -1.  It must be a pure function of its
/// arguments (extract_plan re-runs it) and safe to call concurrently for
/// different d1.
///
/// The tables are `ckpt`'s own (begin_run() must have sized them): every
/// slab whose (d1, j)-frontier reaches j = n commits into the checkpoint
/// at slab exit, and slabs an earlier run already committed are skipped
/// at slab entry -- so a CancelToken firing mid-run leaves the committed
/// slabs resumable.  Both sit OUTSIDE the per-(d1, j) step body.
///
/// Codegen discipline: even a dead runtime branch or an out-of-line call
/// in the step body measurably deoptimizes the fused kernels GCC inlines
/// into the slab (2x swings on the ADMV inner solver), so nothing but the
/// two scans runs there.  The SIMD tier K is a compile-time kernel
/// type (core/simd/argmin_kernels.hpp), chosen once at driver entry by
/// simd::with_kernels, never a runtime branch in the step body; every
/// tier is bitwise identical.
///
/// Threads: min(n, hardware_parallelism()) participants, each with one
/// SlabScratch of its own, claim the slabs in increasing d1 from one
/// atomic counter; no slab takes a lock (the checkpoint's commit counters
/// are atomic).
template <typename K, typename ColumnScanner>
void run_level_dp(const DpContext& ctx, SolveCheckpoint& ckpt,
                  const ColumnScanner& scan) {
  const std::size_t n = ctx.n();
  const auto& costs = ctx.costs();
  const CancelToken* cancel = ctx.cancel_token();
  LevelTables& t = ckpt.tables();

  // Independent d1 slabs: E_verif(d1, *, *) and E_mem(d1, *).
  const auto run_slab = [&](SlabScratch& scratch, std::size_t d1) {
    if (ckpt.slab_done(d1)) {
      // An earlier (interrupted) run already committed this slab's rows
      // of the tables; they are final -- skip the whole frontier.
      ckpt.note_skipped_slab();
      return;
    }
    scratch.ensure(n);
    double* plane = scratch.plane.data();
    double* column = scratch.column.data();
    const std::size_t stride = n + 1;
    const double* emem_row = t.emem.data() + t.idx2(d1, 0);

    t.emem[t.idx2(d1, d1)] = 0.0;  // E_mem(d1, d1) = 0
    t.best_m1[t.idx2(d1, d1)] = static_cast<std::int32_t>(d1);
    for (std::size_t j = d1 + 1; j <= n; ++j) {
      // Cancellation checkpoint: per (d1, j) step, OUTSIDE the fused m1/v1
      // kernels whose codegen must stay untouched (see the codegen note
      // above).  A fired token unwinds this slab and its participant; the
      // others poll the same token and unwind too, and parallel_for
      // rethrows the first SolveInterrupted on the calling thread.
      poll_cancellation(cancel);
      // E_verif(d1, m1, j) for all m1 in [d1, j).
      for (std::size_t m1 = d1; m1 < j; ++m1) {
        double* row = plane + m1 * stride;
        if (m1 + 1 == j) row[m1] = 0.0;  // E_verif(d1, m1, m1) = 0
        const double emem_at_m1 = emem_row[m1];
        CHAINCKPT_ASSERT(emem_at_m1 == emem_at_m1,
                         "E_mem(d1, m1) must be finalized before use");
        double best = std::numeric_limits<double>::infinity();
        std::int32_t best_arg = -1;
        scan(scratch, d1, m1, j, emem_at_m1, row, best, best_arg);
        row[j] = best;
        column[m1] = best;
      }
      // E_mem(d1, j): contiguous scan over the gathered E_verif column.
      double best = std::numeric_limits<double>::infinity();
      std::int32_t best_arg = -1;
      K::sum(emem_row, column, d1, j, best, best_arg);
      t.emem[t.idx2(d1, j)] = best + costs.c_mem_after(j);
      t.best_m1[t.idx2(d1, j)] = best_arg;
    }
    // Slab exit: its table rows are final from here on.
    ckpt.commit_slab(d1);
  };
  const auto participants = std::min<std::size_t>(
      n, static_cast<std::size_t>(std::max(1, util::hardware_parallelism())));
  std::atomic<std::size_t> next_slab{0};
  util::parallel_for(0, participants, [&](std::size_t) {
    SlabScratch scratch;
    for (std::size_t d1 = next_slab++; d1 < n; d1 = next_slab++) {
      run_slab(scratch, d1);
    }
  });

  // E_disk: sequential over d2 (cheap O(n^2) pass).  The E_mem column
  // emem_at(·, d2) strides by n + 1; gather it into a contiguous column
  // so K::sum runs unit stride.
  t.edisk[0] = 0.0;
  t.best_d1[0] = 0;
  std::vector<double> col(n + 1);
  for (std::size_t d2 = 1; d2 <= n; ++d2) {
    for (std::size_t d1 = 0; d1 < d2; ++d1) col[d1] = t.emem_at(d1, d2);
    double best = std::numeric_limits<double>::infinity();
    std::int32_t best_arg = -1;
    K::sum(t.edisk.data(), col.data(), 0, d2, best, best_arg);
    t.edisk[d2] = best + costs.c_disk_after(d2);
    t.best_d1[d2] = best_arg;
  }
}

/// The scan counters of a level-DP solve over n tasks, in closed form.
/// Slab d1 with N = n - d1 right endpoints runs, at j = d1 + L, L v1
/// scans of j - m1 cells (L(L+1)/2 cells) and one m1 scan of L cells.
/// Summed over L in [1, N] and N in [1, n]:
///   steps = n(n+1)(n+2)/6 + n(n+1)/2
///   cells = n(n+1)(n+2)(n+3)/24 + n(n+1)(n+2)/6
/// Every product divides exactly at each step below.  The O(n^2) E_disk
/// pass is not counted.
inline ScanStats level_dp_scan_stats(std::size_t n) {
  const std::uint64_t m = n;
  const std::uint64_t tri = m * (m + 1) / 2;
  const std::uint64_t tet = tri * (m + 2) / 3;
  const std::uint64_t pent = tet * (m + 3) / 4;
  ScanStats stats;
  stats.steps = tet + tri;
  stats.dense_cells = pent + tet;
  stats.cells_scanned = stats.dense_cells;
  return stats;
}

/// Reconstructs the optimal plan from the argmin tables.  For each chosen
/// memory segment (d1, m1) -> m2 it recomputes E_verif(d1, m1, .) and its
/// argmins up to m2 with run_level_dp's calls for plane row m1, in order:
/// that row reads only E_mem(d1, m1) and its own earlier cells, so the
/// bits are the DP's.  Each recomputed scan polls the token first.
/// `partials(scratch, d1, m1, v1, v2, everif_row)`, with everif_row[v] =
/// E_verif(d1, m1, v) for v in [m1, v2], is called for every chosen
/// verified segment and must return the partial-verification positions
/// strictly inside (v1, v2); pass a lambda returning {} for the
/// partial-free algorithms.  The scans and `partials` share one local
/// SlabScratch.
template <typename ColumnScanner, typename PartialReconstructor>
plan::ResiliencePlan extract_plan(const DpContext& ctx, const LevelTables& t,
                                  const ColumnScanner& scan,
                                  const PartialReconstructor& partials) {
  const std::size_t n = ctx.n();
  const CancelToken* cancel = ctx.cancel_token();
  SlabScratch scratch;
  plan::ResiliencePlan plan(n);
  std::vector<double> row(n + 1);
  std::vector<std::int32_t> best_v1(n + 1);
  std::size_t d2 = n;
  while (d2 > 0) {
    const auto d1 = static_cast<std::size_t>(t.best_d1[d2]);
    CHAINCKPT_ASSERT(t.best_d1[d2] >= 0 && d1 < d2, "broken E_disk argmin");
    plan.set_action(d2, plan::Action::kDiskCheckpoint);
    std::size_t m2 = d2;
    while (m2 > d1) {
      const auto m1 = static_cast<std::size_t>(t.best_m1[t.idx2(d1, m2)]);
      CHAINCKPT_ASSERT(t.best_m1[t.idx2(d1, m2)] >= 0 && m1 >= d1 && m1 < m2,
                       "broken E_mem argmin");
      if (m2 != d2) plan.set_action(m2, plan::Action::kMemoryCheckpoint);
      const double emem_at_m1 = t.emem_at(d1, m1);
      row[m1] = 0.0;
      for (std::size_t j = m1 + 1; j <= m2; ++j) {
        poll_cancellation(cancel);
        double best = std::numeric_limits<double>::infinity();
        std::int32_t best_arg = -1;
        scan(scratch, d1, m1, j, emem_at_m1, row.data(), best, best_arg);
        row[j] = best;
        best_v1[j] = best_arg;
      }
      std::size_t v2 = m2;
      while (v2 > m1) {
        const auto v1 = static_cast<std::size_t>(best_v1[v2]);
        CHAINCKPT_ASSERT(best_v1[v2] >= 0 && v1 >= m1 && v1 < v2,
                         "broken E_verif argmin");
        if (v2 != m2) plan.set_action(v2, plan::Action::kGuaranteedVerif);
        for (std::size_t p : partials(scratch, d1, m1, v1, v2, row.data())) {
          CHAINCKPT_ASSERT(p > v1 && p < v2,
                           "partial verification outside its segment");
          plan.set_action(p, plan::Action::kPartialVerif);
        }
        v2 = v1;
      }
      m2 = m1;
    }
    d2 = d1;
  }
  plan.validate();
  return plan;
}

}  // namespace chainckpt::core::detail
