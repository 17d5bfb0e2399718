#include "core/dp_partial.hpp"

#include <cstdint>
#include <limits>
#include <vector>

#include "core/cancellation.hpp"
#include "core/level_dp.hpp"
#include "util/arena.hpp"

namespace chainckpt::core {

namespace {

/// Scratch arenas for the inner DP, sized once per worker thread.  The
/// solver used to heap-allocate its buffers per segment call -- O(n^3)
/// allocations per run -- which dominated the malloc profile.  Deliberate
/// tradeoff: the arenas live in thread_local storage and are only ever
/// grown, so the O(n^2)-per-thread footprint of the largest chain stays
/// resident between solves.  Long-lived embeddings reclaim it through the
/// arena pool (util::release_all_arenas, reached via
/// core::BatchSolver::release_scratch).
struct PartialScratch final : util::ArenaBlock {
  ~PartialScratch() override { unregister(); }

  // O(n) buffers of the right-to-left recursion.
  std::vector<double> ep;
  std::vector<double> er;
  std::vector<std::int32_t> next;
  // O(n^2) fused coefficient planes, rebuilt once per (d1, m1, j) scan and
  // shared by all of its v1 solves (see build_planes).
  std::vector<double> pp;
  std::vector<double> qq;
  std::vector<double> rr;
  std::vector<double> t0;

  void ensure(std::size_t n) {
    if (ep.size() < n + 1) {
      ep.resize(n + 1);
      er.resize(n + 1);
      next.resize(n + 1);
      t0.resize(n + 1);
      pp.resize((n + 1) * (n + 1));
      qq.resize((n + 1) * (n + 1));
      rr.resize((n + 1) * (n + 1));
    }
  }

  std::size_t resident_bytes() const noexcept override {
    return util::vector_bytes(ep) + util::vector_bytes(er) +
           util::vector_bytes(next) + util::vector_bytes(pp) +
           util::vector_bytes(qq) + util::vector_bytes(rr) +
           util::vector_bytes(t0);
  }
  void release() noexcept override {
    util::free_vector(ep);
    util::free_vector(er);
    util::free_vector(next);
    util::free_vector(pp);
    util::free_vector(qq);
    util::free_vector(rr);
    util::free_vector(t0);
  }
};

PartialScratch& partial_scratch() {
  static thread_local PartialScratch scratch;
  return scratch;
}

/// The right-to-left inner DP over one verified segment (v1, v2].
///
/// For a fixed scan context (d1, m1, v2) the candidate score of a hop
/// (p1, p2] decomposes as
///
///   E^-(p1,p2) * e^{(lf+ls) W_{p2,v2}}
///     = [es*(x+V) + b*K1 + d*RMh] * fs   (left-context terms, fixed)
///     + [c * fs] * E_verif               (varies with v1)
///     + [d*g * fs] * E_right(p2)         (varies along the recursion)
///
/// with K1 = R_D + E_mem and RMh = (1-g) R_M.  build_planes materializes
/// the three bracketed planes P/Q/R (plus the terminal base T0) once per
/// scan; each of the scan's v1 solves then runs its O(len^2) hot loop over
/// just five unit-stride streams, one K::partial fold per hop row p1:
///
///   cand[p2] = P[p2] + Q[p2]*E_verif + R[p2]*er[p2] + ep[p2]
///
/// The planes are amortized: a scan costs O((j-m1)^2) to prepare and
/// O((j-m1)^3) to solve.  K is the SIMD kernel facade
/// (core/simd/argmin_kernels.hpp); every tier folds the same candidates
/// in the same order to the same bits.
template <typename K>
struct PartialSegmentSolver {
  const DpContext& ctx;
  const analysis::SegmentRows& rows;

  /// Fills the scratch planes for the scan context (k1, rm_hit, r_mem)
  /// with right endpoint j, covering hop rows p1 in [lo, j).
  void build_planes(std::size_t lo, std::size_t j, double k1, double rm_hit,
                    double r_mem, PartialScratch& s) const {
    const auto& seg = ctx.seg_tables();
    const double g = ctx.costs().miss();
    const double vg_j = seg.vg_after(j);
    const double vp_j = rows.vp_after(j);
    const double* fs_to_j = seg.fs_col(j);
    const std::size_t stride = seg.n() + 1;
    for (std::size_t p1 = lo; p1 < j; ++p1) {
      const double* exv = rows.exv_row(p1);
      const double* b = rows.b_row(p1);
      const double* c = rows.c_row(p1);
      const double* d = rows.d_row(p1);
      double* pp = s.pp.data() + p1 * stride;
      double* qq = s.qq.data() + p1 * stride;
      double* rr = s.rr.data() + p1 * stride;
#pragma omp simd
      for (std::size_t p2 = p1 + 1; p2 < j; ++p2) {
        const double fs = fs_to_j[p2];
        pp[p2] = (exv[p2] + b[p2] * k1 + d[p2] * rm_hit) * fs;
        qq[p2] = c[p2] * fs;
        rr[p2] = d[p2] * (g * fs);
      }
      // Terminal choice p2 = j: the guaranteed verification closes the
      // segment; upgrade the verification cost by e^{(lf+ls)W}(V* - V).
      s.t0[p1] = exv[j] + b[j] * k1 + d[j] * (rm_hit + g * r_mem) +
                 fs_to_j[p1] * (vg_j - vp_j);
    }
  }

  /// Fills s.ep[p] = E_partial(d1,m1,v1,p,v2) and s.next[p] = argmin p2
  /// for p in [v1, v2); s.er[p] tracks E_right along the optimal chain.
  /// Requires build_planes for the same (scan context, v2) first.
  void solve(std::size_t v1, std::size_t v2,
             const analysis::LeftContext& left, PartialScratch& s) const {
    const auto& seg = ctx.seg_tables();
    const double g = ctx.costs().miss();
    const double* vp = rows.vp_data();
    const double* c_to_v2 = seg.c_col(v2);
    const double k1 = left.r_disk + left.e_mem;
    const double rm_hit = (1.0 - g) * left.r_mem;
    const double ev = left.e_verif;
    const std::size_t stride = seg.n() + 1;
    double* ep = s.ep.data();
    double* er = s.er.data();
    std::int32_t* next = s.next.data();

    er[v2] = left.r_mem;  // E_right(..., v2, v2) = R_M
    for (std::size_t p1 = v2; p1-- > v1;) {
      // Seeded with the terminal choice p2 = v2, which only a strictly
      // smaller hop candidate displaces.
      double best = s.t0[p1] + c_to_v2[p1] * ev;
      std::int32_t best_arg = static_cast<std::int32_t>(v2);
      K::partial(s.pp.data() + p1 * stride, s.qq.data() + p1 * stride,
                 s.rr.data() + p1 * stride, er, ep, ev, p1 + 1, v2, best,
                 best_arg);
      const auto best_p2 = static_cast<std::size_t>(best_arg);
      ep[p1] = best;
      next[p1] = best_arg;
      // E_right along the chosen chain: the error that slipped past the
      // partial verification at p1 is next screened at best_p2 -- one
      // table-driven step, no expm1 (see SegmentRows).
      const double v_at_next = vp[best_p2];
      const double pf = rows.pf_row(p1)[best_p2];
      const double tl = rows.tl_row(p1)[best_p2];
      const double ef = rows.ef_row(p1)[best_p2];
      const double w = rows.w_row(p1)[best_p2];
      er[p1] = pf * (tl + k1) + (w + v_at_next + rm_hit + g * er[best_p2]) / ef;
    }
  }

  /// The level engine's v1 scan (the ColumnScanner of core/level_dp.hpp)
  /// for context (d1, m1) and right endpoint j: folds
  /// E_verif(d1,m1,v1) + E_partial(d1,m1,v1,v1,j) over v1 in [m1, j) with
  /// the strict-less leftmost-argmin rule.  The engine calls it exactly
  /// once per (d1, m1, j) step, so the planes are built once per scan, as
  /// the PartialScratch contract describes.
  ///
  /// Out of line on purpose: inlined into run_level_dp's slab body, the
  /// register allocation of the fused loops followed whatever else that
  /// body held -- when the pruned scan mode's objects left that body, the
  /// candidate loop began reloading its pointers from the stack, and
  /// BM_Partial ran 5-7 % slower (GCC 12, 4-vCPU AVX-512 Xeon).  One call
  /// per scan is noise against its O(len^3) work.
  [[gnu::noinline]] void scan(std::size_t d1, std::size_t m1, std::size_t j,
                              double emem_at_m1, const double* everif_row,
                              double& best, std::int32_t& best_arg) const {
    const auto& cm = ctx.costs();
    const double g = cm.miss();
    PartialScratch& scratch = partial_scratch();
    scratch.ensure(ctx.n());
    analysis::LeftContext left{cm.r_disk_after(d1), cm.r_mem_after(m1),
                               emem_at_m1, 0.0};
    build_planes(m1, j, left.r_disk + left.e_mem, (1.0 - g) * left.r_mem,
                 left.r_mem, scratch);
    // Folded in locals: `best` could alias the scratch buffers solve()
    // writes, which would force a store per improvement.
    double fold = best;
    std::int32_t fold_arg = best_arg;
    for (std::size_t v1 = m1; v1 < j; ++v1) {
      left.e_verif = everif_row[v1];
      solve(v1, j, left, scratch);
      const double candidate = everif_row[v1] + scratch.ep[v1];
      if (candidate < fold) {
        fold = candidate;
        fold_arg = static_cast<std::int32_t>(v1);
      }
    }
    best = fold;
    best_arg = fold_arg;
  }
};

}  // namespace

OptimizationResult optimize_with_partial(const chain::TaskChain& chain,
                                         const platform::CostModel& costs) {
  const DpContext ctx(chain, costs);
  return optimize_with_partial(ctx);
}

namespace {

/// The solve body, instantiated once per SIMD kernel tier K (dispatched in
/// optimize_with_partial, as dp_two_level does): the inner hop rows fold
/// on K::partial, and the level engine's m1 chain and E_disk pass on
/// K::sum.  Every tier is bitwise identical to K = ScalarKernels.
template <typename K>
OptimizationResult optimize_with_partial_impl(const DpContext& ctx) {
  const std::size_t n = ctx.n();
  // ADMV keeps the E_verif value table (its partial reconstruction reads
  // it), so the checkpoint -- attached, or else solve-local -- holds
  // everything a resumed run needs.
  SolveCheckpoint local;
  SolveCheckpoint& ckpt =
      ctx.checkpoint() != nullptr ? *ctx.checkpoint() : local;
  ckpt.begin_run(n, /*keep_verif_values=*/true);
  const detail::LevelTables& tables = ckpt.tables();
  // The inner DP's row streams are this solve's own: no other engine reads
  // them, so the shared column tables never carry them.
  const analysis::SegmentRows rows(ctx.table(), ctx.costs());
  const PartialSegmentSolver<K> solver{ctx, rows};
  const auto& cm = ctx.costs();
  const double g = cm.miss();

  const auto scan = [&](std::size_t d1, std::size_t m1, std::size_t j,
                        double emem_at_m1, const double* everif_row,
                        double& best, std::int32_t& best_arg) {
    solver.scan(d1, m1, j, emem_at_m1, everif_row, best, best_arg);
  };
  detail::run_level_dp<K>(ctx, ckpt, scan);

  // Partial positions of a winning segment are re-derived from the (now
  // final) E_verif / E_mem tables: same inputs, same deterministic inner
  // DP on the same kernels, same argmin chain.
  const auto partials = [&](std::size_t d1, std::size_t m1, std::size_t v1,
                            std::size_t v2) {
    poll_cancellation(ctx.cancel_token());  // one inner solve per segment
    PartialScratch& scratch = partial_scratch();
    scratch.ensure(n);
    const analysis::LeftContext left{
        cm.r_disk_after(d1), cm.r_mem_after(m1), tables.emem_at(d1, m1),
        tables.everif_at(d1, m1, v1)};
    solver.build_planes(v1, v2, left.r_disk + left.e_mem,
                        (1.0 - g) * left.r_mem, left.r_mem, scratch);
    solver.solve(v1, v2, left, scratch);
    std::vector<std::size_t> positions;
    for (std::size_t p = static_cast<std::size_t>(scratch.next[v1]); p < v2;
         p = static_cast<std::size_t>(scratch.next[p])) {
      positions.push_back(p);
    }
    return positions;
  };

  return OptimizationResult{detail::extract_plan(ctx, tables, partials),
                            tables.edisk[n], detail::level_dp_scan_stats(n)};
}

}  // namespace

OptimizationResult optimize_with_partial(const DpContext& ctx) {
  // Entry checkpoint: a token that fired while the job sat in a queue
  // aborts before the O(n^3) tables are even allocated.  The per-(d1, j)
  // checkpoints live in run_level_dp, outside the out-of-line v1 scan
  // (PartialSegmentSolver::scan).
  if (const CancelToken* token = ctx.cancel_token()) token->poll_now();
  switch (ctx.simd_tier()) {
    case simd::SimdTier::kAvx512:
      return optimize_with_partial_impl<simd::Avx512Kernels>(ctx);
    case simd::SimdTier::kAvx2:
      return optimize_with_partial_impl<simd::Avx2Kernels>(ctx);
    default:
      return optimize_with_partial_impl<simd::ScalarKernels>(ctx);
  }
}

}  // namespace chainckpt::core
