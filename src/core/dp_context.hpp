// Shared state for the dynamic programming optimizers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "analysis/segment_tables.hpp"
#include "chain/chain.hpp"
#include "core/cancellation.hpp"
#include "core/simd/simd_dispatch.hpp"
#include "plan/plan.hpp"
#include "platform/cost_model.hpp"

namespace chainckpt::core {

class SolveCheckpoint;

/// Work counters of one solve's inner argmin scans, in candidate
/// evaluations ("cells") and scan steps (one leftmost-argmin fold over a
/// right endpoint).  Every DP runs the dense scan, so each fills them at
/// solve end from a closed form: in n for the level DPs (ADMV*, ADMV),
/// plus the re-streamed rows of the chosen disk segments for the
/// single-level DPs (ADV*, AD).  The counts therefore do not depend on
/// the SIMD tier, the thread count, or an interrupt/resume.  Heuristic
/// baselines and plan-cache epsilon hits report zeros.  Aggregated across
/// solves by core::BatchSolver::stats_snapshot().
struct ScanStats {
  /// Candidate evaluations of the dense scan.
  std::uint64_t dense_cells = 0;
  /// Candidate evaluations performed; equal to dense_cells.
  std::uint64_t cells_scanned = 0;
  /// Argmin scan steps.
  std::uint64_t steps = 0;

  ScanStats& operator+=(const ScanStats& other) noexcept {
    dense_cells += other.dense_cells;
    cells_scanned += other.cells_scanned;
    steps += other.steps;
    return *this;
  }
};

/// Accepted and ignored: every DP runs the dense scan.  Kept only so that
/// callers of DpContext::set_scan_mode still compile.
enum class ScanMode { kDense, kMonotonePruned };

/// Result of any optimizer: the chosen plan and its expected makespan
/// (the DP objective value; re-scoring the plan through the analytic
/// evaluator reproduces it), plus the scan counters of the DP that
/// produced it.
struct OptimizationResult {
  plan::ResiliencePlan plan;
  double expected_makespan = 0.0;
  ScanStats scan{};
};

/// Precomputed chain/cost/interval data shared by all DP levels.
class DpContext {
 public:
  static constexpr std::size_t kDefaultMaxN = 900;

  /// `max_n` bounds the solve time of the multi-level DPs, whose memory
  /// is O(n^2): at the default (900) one ADMV* solve (O(n^4)) takes about
  /// 6.5 s on a 4-vCPU AVX-512 Xeon, and ADMV (O(n^6)) is out of reach
  /// long before it.  Pass a larger max_n explicitly to solve longer
  /// chains.  The trailing bool is ignored (ADMV builds its row streams
  /// per solve, see analysis::SegmentRows); it stays so that callers
  /// passing it still compile.
  DpContext(chain::TaskChain chain, platform::CostModel costs,
            std::size_t max_n = kDefaultMaxN, bool /*ignored*/ = true);

  /// Shared-table constructor: borrows a prebuilt SegmentTables instead
  /// of building its own -- the O(n^2) coefficient table is the dominant
  /// per-solve setup cost, and core::BatchSolver reuses one across every
  /// job with the same (chain weights, cost model) key.  The pointer must
  /// be non-null, sized for this chain, and built from THIS chain and cost
  /// model (byte-identical inputs); the constructor checks the size, the
  /// caller owns the stronger contract.
  DpContext(chain::TaskChain chain, platform::CostModel costs,
            std::shared_ptr<const analysis::SegmentTables> seg_tables,
            std::size_t max_n = kDefaultMaxN);

  /// No effect: every DP runs the dense scan (see ScanMode).
  void set_scan_mode(ScanMode /*ignored*/) noexcept {}

  /// Attaches a cooperative cancellation/deadline token (see
  /// core/cancellation.hpp); the DP drivers poll it at their checkpoint
  /// placements and throw SolveInterrupted when it fires.  The token must
  /// outlive every solve run on this context; nullptr (the default)
  /// disables the checkpoints' work entirely.  Not owned.
  void set_cancel_token(const CancelToken* token) noexcept {
    cancel_ = token;
  }
  const CancelToken* cancel_token() const noexcept { return cancel_; }

  /// Attaches a resumable checkpoint (core/solve_checkpoint.hpp) for the
  /// multi-level DPs (kADMVstar/kADMV): completed d1 slabs are committed
  /// into it, and a run that starts on a checkpoint holding progress for
  /// the same workload skips them.  The checkpoint must outlive the solve
  /// and belong to this solve exclusively while it runs.  nullptr (the
  /// default) runs each solve on a solve-local checkpoint that is dropped
  /// with its result; the single-level DPs ignore it.  Not owned.
  void set_checkpoint(SolveCheckpoint* checkpoint) noexcept {
    checkpoint_ = checkpoint;
  }
  SolveCheckpoint* checkpoint() const noexcept { return checkpoint_; }

  /// Per-solve SIMD tier override for the argmin kernels (see
  /// core/simd/simd_dispatch.hpp).  Requests are clamped to the best tier
  /// the CPU/build actually supports -- an override can narrow the
  /// dispatch (benches, equivalence batteries), never force an
  /// unsupported ISA.  Without an override the process-wide
  /// simd::active_tier() (detected tier clamped by CHAINCKPT_SIMD)
  /// applies.  Every tier produces bitwise-identical plans, objectives,
  /// and scan counters.
  void set_simd_tier(simd::SimdTier tier) noexcept {
    simd_override_ = simd::clamp_tier(tier);
    has_simd_override_ = true;
  }
  simd::SimdTier simd_tier() const noexcept {
    return has_simd_override_ ? simd_override_ : simd::active_tier();
  }

  std::size_t n() const noexcept { return chain_.size(); }
  const chain::TaskChain& chain() const noexcept { return chain_; }
  const platform::CostModel& costs() const noexcept { return costs_; }
  /// Hoisted SoA interval algebra for the DP inner kernels.
  const analysis::SegmentTables& seg_tables() const noexcept {
    return *seg_tables_;
  }
  double lambda_f() const noexcept { return costs_.lambda_f(); }

 private:
  chain::TaskChain chain_;
  platform::CostModel costs_;
  const CancelToken* cancel_ = nullptr;
  SolveCheckpoint* checkpoint_ = nullptr;
  simd::SimdTier simd_override_ = simd::SimdTier::kScalar;
  bool has_simd_override_ = false;
  /// shared_ptr so a BatchSolver cache entry and every context borrowing
  /// it stay valid independently of each other's lifetime; the
  /// build-your-own constructor simply owns the single reference.
  std::shared_ptr<const analysis::SegmentTables> seg_tables_;
};

}  // namespace chainckpt::core
