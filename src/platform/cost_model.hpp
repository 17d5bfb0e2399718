// Resilience-cost model seen by the optimizers and the evaluator.
//
// The paper uses position-independent costs (C_D, C_M, R_D, R_M, V*, V are
// scalars).  The dynamic programs however only ever query "the cost of a
// disk checkpoint AFTER task i", so we expose costs as functions of the
// position at no extra complexity.  This enables the per-task-cost
// extension (e.g. checkpoint size proportional to a task's live data set)
// that the paper hints at ("all these choices ... can easily be modified").
//
// Recovery-cost convention (paper Section III): rolling back to the virtual
// task T0 is free, so r_disk_after(0) == 0 and r_mem_after(0) == 0 for
// every model.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"

namespace chainckpt::platform {

/// Failure law the *planner* integrates the Eq. (4)-style expectations
/// under.  kExponential is the paper's memoryless law; kWeibull renews per
/// task attempt with shape k and the mean-matched scale
/// theta = 1 / (lambda_f * Gamma(1 + 1/k)), matching error::WeibullInjector.
/// The knob changes only what analysis::SegmentTables / the evaluator
/// build -- the DP kernels consume the resulting coefficient streams
/// unchanged.
enum class FailureLaw { kExponential, kWeibull };

struct PlanningLaw {
  FailureLaw law = FailureLaw::kExponential;
  /// Weibull shape k (> 0); ignored under kExponential.
  double weibull_shape = 1.0;

  /// True when the law collapses to the paper's memoryless case.  Shape
  /// exactly 1 takes the exponential path verbatim, so its coefficient
  /// streams are bitwise-identical to the exponential law's (see
  /// analysis::IntervalSource).
  bool is_exponential() const noexcept {
    return law == FailureLaw::kExponential || weibull_shape == 1.0;
  }
};

class CostModel {
 public:
  /// Placeholder: a uniform all-zero-cost model on an "unconfigured"
  /// platform.  Exists so request-shaped aggregates (core::BatchJob,
  /// service::JobRequest) are default-constructible -- wire decoders
  /// fill them field by field -- and is always overwritten before a
  /// solve reads it.
  CostModel();

  /// Constant costs taken from a Platform record (the paper's setting).
  explicit CostModel(const Platform& platform);

  /// Per-position extension: vectors indexed by task position 1..n give the
  /// cost of the action taken AFTER that task.  All vectors must have the
  /// same length n.  Recall and rates still come from `platform`.
  /// Recovery costs default to mirroring the checkpoint costs.
  CostModel(const Platform& platform, std::vector<double> c_disk,
            std::vector<double> c_mem, std::vector<double> v_guaranteed,
            std::vector<double> v_partial);

  /// Fully explicit per-position model with independent recovery costs --
  /// needed e.g. by the Lagrangian budget optimizer, which perturbs
  /// checkpoint prices without touching recovery semantics.
  CostModel(const Platform& platform, std::vector<double> c_disk,
            std::vector<double> c_mem, std::vector<double> v_guaranteed,
            std::vector<double> v_partial, std::vector<double> r_disk,
            std::vector<double> r_mem);

  const Platform& platform() const noexcept { return platform_; }

  double lambda_f() const noexcept { return platform_.lambda_f; }
  double lambda_s() const noexcept { return platform_.lambda_s; }
  double recall() const noexcept { return platform_.recall; }
  /// g = 1 - recall.
  double miss() const noexcept { return platform_.miss_probability(); }

  /// Planning law (defaults to the paper's exponential; see FailureLaw).
  const PlanningLaw& planning_law() const noexcept { return planning_law_; }
  /// Requires weibull_shape > 0 when the law is kWeibull.
  void set_planning_law(PlanningLaw law);

  /// Cost of taking a disk checkpoint after task i (i >= 1).
  double c_disk_after(std::size_t i) const;
  /// Cost of taking a memory checkpoint after task i (i >= 1).
  double c_mem_after(std::size_t i) const;
  /// Cost of a guaranteed verification after task i (i >= 1).
  double v_guaranteed_after(std::size_t i) const;
  /// Cost of a partial verification after task i (i >= 1).
  double v_partial_after(std::size_t i) const;

  /// Cost of recovering from the disk checkpoint taken after task i;
  /// position 0 is the virtual task T0 and is free.
  double r_disk_after(std::size_t i) const;
  /// Cost of recovering from the memory checkpoint taken after task i;
  /// position 0 is free.
  double r_mem_after(std::size_t i) const;

  /// True when all costs are position-independent (fast paths and
  /// paper-exact reproduction).
  bool is_uniform() const noexcept { return uniform_; }

  /// Serialization accessors (net/payload.hpp): the raw per-position
  /// streams exactly as constructed -- all empty for a uniform model, and
  /// the recovery streams empty when they mirror the checkpoint costs
  /// (the paper convention).  Reconstructing a model from these via the
  /// matching constructor reproduces every accessor bit-for-bit,
  /// including the mirror semantics, so wire round trips cannot perturb
  /// a solve.
  const std::vector<double>& raw_c_disk() const noexcept { return c_disk_; }
  const std::vector<double>& raw_c_mem() const noexcept { return c_mem_; }
  const std::vector<double>& raw_v_guaranteed() const noexcept {
    return v_guaranteed_;
  }
  const std::vector<double>& raw_v_partial() const noexcept {
    return v_partial_;
  }
  const std::vector<double>& raw_r_disk() const noexcept { return r_disk_; }
  const std::vector<double>& raw_r_mem() const noexcept { return r_mem_; }

 private:
  Platform platform_;
  PlanningLaw planning_law_{};
  bool uniform_ = true;
  std::vector<double> c_disk_;
  std::vector<double> c_mem_;
  std::vector<double> v_guaranteed_;
  std::vector<double> v_partial_;
  /// Empty means "mirror the checkpoint cost" (paper convention).
  std::vector<double> r_disk_;
  std::vector<double> r_mem_;

  void check_position(std::size_t i) const;
};

}  // namespace chainckpt::platform
