// Admission control: price a solve before running it.
//
// The algorithms the service fronts have wildly different asymptotic
// costs -- the streamed single-level DP is O(n^3), the two-level engine
// O(n^4), and ADMV's partial-verification DP O(n^6) -- so a queue that
// treats "one job" as one unit of work lets a single ADMV request starve
// hundreds of cheap ones.  The admission controller prices every job from
// its algorithm class and chain length (price_units, the n^k cost model),
// rejects work that is individually over the per-job cap or arrives to a
// full queue, and hands the dispatcher a budget test so the priced sum of
// in-flight work stays under the configured concurrency budget.
//
// Pricing is a static model; calibration makes it actionable.  Every
// completed job reports its observed wall time, which the controller
// folds into per-class EWMA throughput estimates, so estimate() can
// translate abstract units into expected seconds once traffic has warmed
// it up -- the numbers an operator tunes the budget against (see
// docs/SERVER.md).
//
// Calibration also closes the loop on deadlines: a submission that
// carries one is checked against the class's calibrated estimate at
// submit time, and a job whose estimate already exceeds its deadline is
// rejected up front (RejectReason::kDeadlineInfeasible) instead of
// burning a worker on a solve that is doomed to expire.
//
// Thread-safety: all methods are safe to call concurrently; calibration
// state sits behind an internal mutex, and assess() reads only immutable
// config, calibration state, and caller-supplied load figures.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>

#include "core/batch_solver.hpp"

namespace chainckpt::service {

/// Exponent k of the algorithm's asymptotic DP cost O(n^k): 2 for AD and
/// the heuristic baselines, 3 for ADV*, 4 for ADMV*, 6 for ADMV.
double complexity_exponent(core::Algorithm algorithm) noexcept;

/// Abstract priced cost of one job: n^k scaled by 1e-6, so an ADV* job at
/// n = 400 prices at 64 units while an ADMV job at n = 100 prices at one
/// million -- the asymmetry the budget is there to manage.
double price_units(core::Algorithm algorithm, std::size_t n) noexcept;

struct AdmissionConfig {
  /// Priced units allowed in flight at once; 0 = unlimited.  When the
  /// next queued job would push the in-flight sum past the budget it
  /// waits in the queue (an idle service always dispatches at least one
  /// job, so a single over-budget job cannot wedge the queue).
  double budget_units = 0.0;
  /// Per-job cap; a submission priced above it is rejected outright.
  /// 0 = no cap.
  double max_job_units = 0.0;
  /// Submissions rejected once this many jobs are already queued.
  std::size_t queue_capacity = 1024;
  /// Deadline screen: reject a submission whose per-class calibrated
  /// estimate, scaled by this headroom, already exceeds its deadline:
  ///   estimated_seconds * deadline_headroom > deadline.
  /// Values above 1 reject earlier (pessimistic); below 1 admit jobs the
  /// estimate says will likely expire; 0 turns the screen off.  Only
  /// fires once the class has completed at least one job -- a cold class
  /// admits everything (the deadline still expires the job cooperatively
  /// mid-solve if the guess was wrong).  Deadlines that are negative at
  /// submit are rejected regardless of calibration AND of the headroom --
  /// admitting one would run the job unbounded, since only positive
  /// deadlines arm the token.
  double deadline_headroom = 1.0;
};

/// Price multiplier applied when the solver's plan cache reports the
/// submission would probably be served from cache (exact key present, or
/// a certified near-miss within the advisory drift screen): a cache hit
/// skips the priced DP entirely, so charging the full n^k price would
/// reject or queue work that costs microseconds.  The discount is
/// advisory-priced, not a guarantee -- a probable hit that falls through
/// to a full solve still runs under its discounted price, which the
/// budget absorbs like any calibration error.
inline constexpr double kCacheHitUnitFactor = 0.05;

/// Only kReject changes what happens to a submission; the kAdmit/kQueue
/// split is advisory (would the job start right now?), because the
/// budget is enforced at dispatch time by fits(), not at submit time --
/// SolverService queues both and lets its dispatcher gate the start.
enum class AdmissionDecision {
  kAdmit,   ///< fits the budget right now
  kQueue,   ///< admissible, but must wait for in-flight work to drain
  kReject,  ///< over the per-job cap, full queue, or infeasible deadline
};

/// Machine-readable why of a rejection, surfaced on the job handle
/// (JobStatus::reject_reason) so clients can react programmatically --
/// back off on kQueueFull, shrink the request on kPerJobCap, extend or
/// drop the deadline on kDeadlineInfeasible.  The submit-side screens of
/// SolverService (empty chain, over-max_n chain, shutdown) use the same
/// enum.
enum class RejectReason {
  kNone,                ///< not rejected
  kPerJobCap,           ///< priced above AdmissionConfig::max_job_units
  kQueueFull,           ///< AdmissionConfig::queue_capacity reached
  kDeadlineInfeasible,  ///< calibrated estimate exceeds the deadline
  kEmptyChain,          ///< the job carried no tasks
  kChainTooLong,        ///< chain longer than the service's max_n
  kShutdown,            ///< service no longer accepting work
};

const char* to_string(RejectReason reason) noexcept;

struct AdmissionVerdict {
  AdmissionDecision decision = AdmissionDecision::kAdmit;
  double cost_units = 0.0;
  /// Static human-readable explanation (never null).
  const char* reason = "";
  /// Machine-readable rejection cause; kNone unless decision == kReject.
  RejectReason reject = RejectReason::kNone;
  /// Calibrated expected seconds consulted by the deadline screen;
  /// kUncalibrated when the class has no completed jobs (or the
  /// submission carried no deadline).
  double estimated_seconds = -1.0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {});

  const AdmissionConfig& config() const noexcept { return config_; }

  /// Prices (algorithm, n) and decides against the caller's current load
  /// (queued job count, priced units in flight) and the submission's
  /// deadline (zero = none; the calibrated feasibility screen is
  /// described on AdmissionConfig::deadline_headroom).  Reads
  /// config, the calibration state, and its arguments -- the caller
  /// serializes load reads itself.  `probable_cache_hit` (from
  /// core::BatchSolver::probable_plan_cache_hit) discounts the price by
  /// kCacheHitUnitFactor and skips the deadline
  /// feasibility screen, whose calibrated estimate models the full DP.
  AdmissionVerdict assess(core::Algorithm algorithm, std::size_t n,
                          std::size_t queued_now, double inflight_units,
                          std::chrono::milliseconds deadline =
                              std::chrono::milliseconds{0},
                          bool probable_cache_hit = false) const;

  /// Dispatcher-side budget test: may a job priced `cost_units` start
  /// while `inflight_units` are already running?
  bool fits(double cost_units, double inflight_units) const noexcept;

  /// Calibration feed, called per completed job: priced units and
  /// observed wall seconds.
  void observe(core::Algorithm algorithm, double cost_units, double seconds);

  struct Estimate {
    double cost_units = 0.0;
    /// Expected wall seconds from the class's calibrated throughput;
    /// negative (kUncalibrated) until the class has completed a job.
    double seconds = kUncalibrated;
  };
  static constexpr double kUncalibrated = -1.0;

  Estimate estimate(core::Algorithm algorithm, std::size_t n) const;

 private:
  static std::size_t class_index(core::Algorithm algorithm) noexcept;
  /// estimate() body; requires mutex_ (assess() shares it).
  Estimate estimate_locked(core::Algorithm algorithm, std::size_t n) const;

  struct ClassCalibration {
    double units_per_second = 0.0;  ///< EWMA; 0 = no sample yet
    std::size_t samples = 0;
  };

  AdmissionConfig config_;
  mutable std::mutex mutex_;
  ClassCalibration classes_[6];
};

}  // namespace chainckpt::service
