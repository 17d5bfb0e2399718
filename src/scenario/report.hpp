// Machine-readable per-cell results of a scenario-matrix run.
//
// The report is the regression artifact future PRs diff against, so its
// JSON form carries a byte-determinism contract: the same spec list +
// seed produces the IDENTICAL byte stream on the same build, regardless
// of thread count or cell execution order.  Everything in the canonical
// report is therefore derived from deterministic quantities (bitwise DP
// results, seeded Monte-Carlo streams, seeded traces); wall-clock timing
// metrics only appear when RunnerOptions::include_timing opts out of the
// contract (tools/run_scenarios.py does, CI determinism tests do not).
//
// Divergence-flag semantics (see docs/SCENARIOS.md):
//   * assumptions_hold -- the regime satisfies what the DP assumes
//     (exponential failures, honest recall).  False marks a cell whose
//     DP prediction is UNTRUSTED by construction.
//   * within_ci / diverged -- per-algorithm: is the Monte-Carlo mean
//     makespan inside the flagging interval around the DP prediction
//     (4.5 sigmas + a 0.5% relative floor)?
//   * ok -- the cell-level verdict: all DP configurations bit-identical,
//     and IF assumptions hold, no divergence.  A broken-assumption cell
//     is ok even when diverged -- but the divergence is recorded and
//     counted, never silently averaged away.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace chainckpt::scenario {

/// FNV-1a 64 over arbitrary bytes; the digest primitive for plans,
/// objectives, and traces.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 1469598103934665603ULL) noexcept;

/// 16-hex-digit lowercase rendering of a 64-bit digest.
std::string hex64(std::uint64_t v);

/// Digest of one solve: FNV-1a over the canonical plan text plus the raw
/// IEEE-754 bits of the objective.  Bitwise solver changes -- kernels,
/// pruning, layouts -- show up here immediately.
std::uint64_t result_digest(const plan::ResiliencePlan& plan,
                            double expected_makespan);

/// One algorithm's DP lane in one cell.
struct DpLaneResult {
  std::string algorithm;     ///< display name
  std::string digest;        ///< hex64(result_digest(...))
  double expected_makespan = 0.0;
  std::string makespan_bits;  ///< "0x" + 16 hex digits of the double bits
  std::string plan_compact;   ///< ResiliencePlan::compact_string()
  /// All solved configurations (SIMD tiers) produced bit-identical plans
  /// and objectives.
  bool configs_identical = false;
  std::size_t configs = 0;    ///< configurations cross-checked
  /// Restart-vs-checkpoint comparison (Sodre et al.): the restart-only
  /// plan (no intermediate actions, mandatory final disk checkpoint)
  /// scored under the SAME planning law as the DP, and its makespan
  /// relative to the optimized plan.  A ratio well above 1 quantifies
  /// what checkpointing buys on this cell; heavy-tail cells planned
  /// under Weibull show it growing with 1/shape.
  double restart_makespan = 0.0;
  double restart_ratio = 0.0;  ///< restart_makespan / expected_makespan
};

/// One algorithm's Monte-Carlo lane in one cell.
struct SimLaneResult {
  std::string algorithm;
  double dp_prediction = 0.0;   ///< DP objective (modeled platform)
  double sim_mean = 0.0;        ///< MC mean makespan (actual regime)
  double sim_stderr = 0.0;      ///< standard error of the MC mean
  double gap_sigmas = 0.0;      ///< |sim - dp| / stderr (0 when stderr=0)
  double relative_gap = 0.0;    ///< (sim - dp) / dp
  std::size_t replicas = 0;
  bool within_ci = false;       ///< inside 4.5 stderr + 0.5% of dp
};

/// The service lane of one traffic-carrying cell.  Only deterministic
/// outcomes live here; latency percentiles ride in `timing_json` when
/// enabled.
struct ServiceLaneResult {
  std::size_t jobs = 0;
  std::string trace_digest;     ///< hex64(ArrivalTrace::digest())
  bool all_succeeded = false;
  bool bitwise_ok = false;      ///< every result == sync reference solve
  std::uint64_t priority_inversions = 0;  ///< must be 0 (unlimited budget)
  /// Optional non-deterministic block (include_timing): raw JSON object
  /// text with latency/preemption metrics, or empty.
  std::string timing_json;
};

/// The cache-replay lane of one cache-enabled cell.  Counters come from
/// serial PlanCacheStats deltas around each replayed request, so
/// requests == exact_hits + epsilon_hits + resolves holds by
/// construction; `oracle_ok` folds the per-request fresh-solve oracle:
/// exact hits bitwise-identical to the fresh solve, epsilon-hits within
/// (1 + epsilon) of the fresh objective, re-solves bitwise-identical to
/// the fresh solve.
struct CacheLaneResult {
  std::size_t requests = 0;
  std::size_t exact_hits = 0;
  std::size_t epsilon_hits = 0;
  std::size_t resolves = 0;      ///< misses + certificate rejections
  double epsilon = 0.0;          ///< tolerance the lane replayed under
  bool oracle_ok = false;
};

struct CellReport {
  std::string name;
  std::uint64_t seed = 0;
  /// Planning-law column: "exponential" or "weibull k=<shape>" -- the law
  /// the modeled cost model's DP integrated segment expectations under.
  std::string planning_law;
  bool assumptions_hold = true;
  bool diverged = false;        ///< any sim lane outside the interval
  bool flagged = false;         ///< !assumptions_hold (divergence lane)
  bool ok = false;              ///< see header comment
  std::vector<DpLaneResult> dp;
  std::vector<SimLaneResult> sim;
  std::vector<ServiceLaneResult> service;  ///< empty or one entry
  std::vector<CacheLaneResult> cache;      ///< empty or one entry
};

struct MatrixSummary {
  std::size_t cells = 0;
  std::size_t ok_cells = 0;
  std::size_t flagged_cells = 0;       ///< assumption-breaking cells
  std::size_t diverged_flagged = 0;    ///< ...of which measurably diverged
  std::size_t diverged_in_model = 0;   ///< divergences where assumptions
                                       ///< hold -- must be 0
  std::size_t dp_config_mismatches = 0;  ///< must be 0
  std::size_t service_cells = 0;
};

struct ScenarioReport {
  std::uint64_t master_seed = 0;
  std::vector<CellReport> cells;
  MatrixSummary summary;       ///< recomputed by finalize()

  /// Recomputes `summary` from `cells`.
  void finalize();
};

/// Canonical JSON rendering (byte-deterministic; see header comment).
std::string report_to_json(const ScenarioReport& report);

/// Digest over the canonical JSON bytes -- the one-line fingerprint CI
/// logs print.
std::string report_digest(const ScenarioReport& report);

}  // namespace chainckpt::scenario
