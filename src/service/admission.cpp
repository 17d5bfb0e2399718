#include "service/admission.hpp"

#include <cmath>

namespace chainckpt::service {

namespace {

/// EWMA weight for new calibration samples: heavy enough to track a
/// platform change within a few jobs, light enough to smooth the
/// per-solve jitter of small chains.
constexpr double kEwmaAlpha = 0.25;

}  // namespace

double complexity_exponent(core::Algorithm algorithm) noexcept {
  switch (algorithm) {
    case core::Algorithm::kAD:
      return 2.0;  // single-cell v1 scans: n rows of O(n) steps
    case core::Algorithm::kADVstar:
      return 3.0;  // streamed single-level DP
    case core::Algorithm::kADMVstar:
      return 4.0;  // two-level engine, Eq. (4) segments
    case core::Algorithm::kADMV:
      return 6.0;  // two-level engine over the partial inner DP
    case core::Algorithm::kPeriodic:
    case core::Algorithm::kDaly:
      return 2.0;  // analytic evaluator over candidate plans
  }
  return 2.0;
}

double price_units(core::Algorithm algorithm, std::size_t n) noexcept {
  return std::pow(static_cast<double>(n), complexity_exponent(algorithm)) *
         1e-6;
}

const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kPerJobCap:
      return "per-job-cap";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kDeadlineInfeasible:
      return "deadline-infeasible";
    case RejectReason::kEmptyChain:
      return "empty-chain";
    case RejectReason::kChainTooLong:
      return "chain-too-long";
    case RejectReason::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {}

AdmissionVerdict AdmissionController::assess(
    core::Algorithm algorithm, std::size_t n, std::size_t queued_now,
    double inflight_units, std::chrono::milliseconds deadline,
    bool probable_cache_hit) const {
  AdmissionVerdict verdict;
  verdict.cost_units = price_units(algorithm, n);
  if (probable_cache_hit) verdict.cost_units *= kCacheHitUnitFactor;
  if (config_.max_job_units > 0.0 &&
      verdict.cost_units > config_.max_job_units) {
    verdict.decision = AdmissionDecision::kReject;
    verdict.reject = RejectReason::kPerJobCap;
    verdict.reason = "job priced above the per-job admission cap";
    return verdict;
  }
  if (queued_now >= config_.queue_capacity) {
    verdict.decision = AdmissionDecision::kReject;
    verdict.reject = RejectReason::kQueueFull;
    verdict.reason = "admission queue is full";
    return verdict;
  }
  if (deadline.count() < 0) {
    // The submit-time race the chaos battery probes: a deadline the
    // client computed against an earlier clock can already be in the
    // past when the submission lands.  Rejected regardless of the
    // feasibility screen -- admitting it would run the job with no
    // deadline at all (the service only arms positive ones).
    verdict.decision = AdmissionDecision::kReject;
    verdict.reject = RejectReason::kDeadlineInfeasible;
    verdict.reason = "deadline already passed at submit";
    return verdict;
  }
  if (deadline.count() > 0 && config_.deadline_headroom > 0.0 &&
      !probable_cache_hit) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Estimate est = estimate_locked(algorithm, n);
    verdict.estimated_seconds = est.seconds;
    const double deadline_seconds =
        std::chrono::duration<double>(deadline).count();
    if (est.seconds >= 0.0 &&
        est.seconds * config_.deadline_headroom > deadline_seconds) {
      verdict.decision = AdmissionDecision::kReject;
      verdict.reject = RejectReason::kDeadlineInfeasible;
      verdict.reason =
          "calibrated estimate already exceeds the job's deadline";
      return verdict;
    }
  }
  if (!fits(verdict.cost_units, inflight_units)) {
    verdict.decision = AdmissionDecision::kQueue;
    verdict.reason = "queued until in-flight priced work drains";
    return verdict;
  }
  verdict.decision = AdmissionDecision::kAdmit;
  verdict.reason = "within budget";
  return verdict;
}

bool AdmissionController::fits(double cost_units,
                               double inflight_units) const noexcept {
  return config_.budget_units <= 0.0 ||
         inflight_units + cost_units <= config_.budget_units;
}

void AdmissionController::observe(core::Algorithm algorithm,
                                  double cost_units, double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ClassCalibration& cls = classes_[class_index(algorithm)];
  if (seconds > 0.0 && cost_units > 0.0) {
    const double rate = cost_units / seconds;
    cls.units_per_second = cls.samples == 0
                               ? rate
                               : (1.0 - kEwmaAlpha) * cls.units_per_second +
                                     kEwmaAlpha * rate;
  }
  ++cls.samples;
}

AdmissionController::Estimate AdmissionController::estimate(
    core::Algorithm algorithm, std::size_t n) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return estimate_locked(algorithm, n);
}

AdmissionController::Estimate AdmissionController::estimate_locked(
    core::Algorithm algorithm, std::size_t n) const {
  Estimate est;
  est.cost_units = price_units(algorithm, n);
  const ClassCalibration& cls = classes_[class_index(algorithm)];
  if (cls.units_per_second > 0.0) {
    est.seconds = est.cost_units / cls.units_per_second;
  }
  return est;
}

std::size_t AdmissionController::class_index(
    core::Algorithm algorithm) noexcept {
  switch (algorithm) {
    case core::Algorithm::kAD:
      return 0;
    case core::Algorithm::kADVstar:
      return 1;
    case core::Algorithm::kADMVstar:
      return 2;
    case core::Algorithm::kADMV:
      return 3;
    case core::Algorithm::kPeriodic:
      return 4;
    case core::Algorithm::kDaly:
      return 5;
  }
  return 0;
}

}  // namespace chainckpt::service
