#include "core/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "analysis/first_order.hpp"
#include "platform/cost_model.hpp"
#include "util/assert.hpp"

namespace chainckpt::core {

namespace {

bool same_bits(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Relative drift |b/a - 1|; 0 when bitwise-equal, +inf when the base is
/// zero but the request is not (no relative scale exists).
double rel_drift(double a, double b) noexcept {
  if (same_bits(a, b)) return 0.0;
  if (a == 0.0) return std::numeric_limits<double>::infinity();
  return std::abs(b / a - 1.0);
}

/// True when the two planning laws select the same coefficient build --
/// every exponential-reducing law (including Weibull at shape exactly 1)
/// is one class; Weibull laws compare by shape bits.
bool same_law(const platform::PlanningLaw& a,
              const platform::PlanningLaw& b) noexcept {
  if (a.is_exponential() != b.is_exponential()) return false;
  if (a.is_exponential()) return true;
  return same_bits(a.weibull_shape, b.weibull_shape);
}

}  // namespace

ValidityCertificate make_validity_certificate(
    const plan::ResiliencePlan& plan, const platform::Platform& platform,
    double base_objective, double total_weight) {
  const plan::ActionCounts counts = plan.total_counts();
  const analysis::FirstOrderPrediction fo =
      analysis::first_order_prediction(platform);
  // Per group, screen with whichever count is denser -- the plan's actual
  // placements or the first-order prediction.  Denser mechanisms react to
  // smaller drifts, so max() is the conservative choice.
  const auto denser = [](std::size_t a, std::size_t b) {
    return std::max(a, b);
  };
  ValidityCertificate cert;
  cert.radius_lambda_f = analysis::stability_radius(
      denser(counts.disk, fo.expected_disk(total_weight)));
  cert.radius_lambda_s = analysis::stability_radius(
      denser(counts.memory + counts.guaranteed,
             fo.expected_memory(total_weight) +
                 fo.expected_verifs(total_weight)));
  cert.radius_cost = analysis::stability_radius(
      denser(counts.disk + counts.memory,
             fo.expected_disk(total_weight) +
                 fo.expected_memory(total_weight)));
  cert.radius_verif = analysis::stability_radius(
      denser(counts.guaranteed + counts.partial,
             fo.expected_verifs(total_weight)));
  cert.radius_miss = analysis::stability_radius(counts.partial);
  cert.base_objective = base_objective;
  cert.total_weight = total_weight;
  // Plans that deploy partial verifications were certainly priced under
  // the III-B framework.  PlanCache::insert additionally sets this for
  // every kADMV entry -- that engine prices partial-free optima under
  // III-B too.
  cert.partial_framework = plan.uses_partial_verifications();
  return cert;
}

DriftCheck check_certificate(const ValidityCertificate& cert,
                             const platform::CostModel& base,
                             const platform::CostModel& request,
                             std::size_t n) {
  CHAINCKPT_REQUIRE(n >= 1, "drift check needs a non-empty chain");
  DriftCheck check;

  // --- Advisory screen: per-group relative drift vs the radii. ---------
  const bool law_ok = same_law(base.planning_law(), request.planning_law());
  double d_lf = rel_drift(base.lambda_f(), request.lambda_f());
  if (!law_ok) {
    d_lf = std::numeric_limits<double>::infinity();
  } else if (!base.planning_law().is_exponential()) {
    d_lf = std::max(d_lf, rel_drift(base.planning_law().weibull_shape,
                                    request.planning_law().weibull_shape));
  }
  const double d_ls = rel_drift(base.lambda_s(), request.lambda_s());
  const double d_miss = rel_drift(base.miss(), request.miss());
  const std::size_t sweep =
      (base.is_uniform() && request.is_uniform()) ? 1 : n;
  double d_cost = 0.0;
  double d_verif = 0.0;
  for (std::size_t i = 1; i <= sweep; ++i) {
    d_cost = std::max(
        {d_cost, rel_drift(base.c_disk_after(i), request.c_disk_after(i)),
         rel_drift(base.c_mem_after(i), request.c_mem_after(i)),
         rel_drift(base.r_disk_after(i), request.r_disk_after(i)),
         rel_drift(base.r_mem_after(i), request.r_mem_after(i))});
    d_verif = std::max({d_verif,
                        rel_drift(base.v_guaranteed_after(i),
                                  request.v_guaranteed_after(i)),
                        rel_drift(base.v_partial_after(i),
                                  request.v_partial_after(i))});
  }
  check.max_drift = std::max({d_lf, d_ls, d_miss, d_cost, d_verif});
  if (check.max_drift == 0.0) {
    check.outcome = DriftOutcome::kExactMatch;
  } else if (d_lf <= cert.radius_lambda_f && d_ls <= cert.radius_lambda_s &&
             d_cost <= cert.radius_cost && d_verif <= cert.radius_verif &&
             d_miss <= cert.radius_miss) {
    check.outcome = DriftOutcome::kWithinRadius;
  } else {
    check.outcome = DriftOutcome::kBeyondRadius;
  }

  // --- Sound lower bound on E*(theta_req). -----------------------------
  // Unconditionally, every task executes at least once: E* >= sum of
  // weights.  When no rate-like parameter decreased and the law is
  // unchanged, the gamma-scaling argument (see sensitivity.hpp) tightens
  // this to gamma * E*(theta_base).
  check.lower_bound = cert.total_weight;
  const bool rates_nondecreasing =
      law_ok &&
      (!base.planning_law().is_exponential()
           ? same_bits(base.planning_law().weibull_shape,
                       request.planning_law().weibull_shape)
           : true) &&
      request.lambda_f() >= base.lambda_f() &&
      request.lambda_s() >= base.lambda_s() &&
      request.miss() >= base.miss();
  if (rates_nondecreasing) {
    double gamma = 1.0;
    bool valid = true;
    const auto fold = [&](double base_v, double req_v) {
      if (base_v < 0.0 || req_v < 0.0) {
        valid = false;
        return;
      }
      if (base_v > 0.0) gamma = std::min(gamma, req_v / base_v);
    };
    for (std::size_t i = 1; i <= sweep && valid; ++i) {
      fold(base.c_disk_after(i), request.c_disk_after(i));
      fold(base.c_mem_after(i), request.c_mem_after(i));
      fold(base.r_disk_after(i), request.r_disk_after(i));
      fold(base.r_mem_after(i), request.r_mem_after(i));
      if (cert.partial_framework) {
        // Section III-B pricing: V* and V have mixed-sign coefficients;
        // (V, V* - V) is the non-negative basis (see sensitivity.hpp).
        // A request with V > V* has no valid transform -- fold() trips
        // on the negative difference and the weight floor remains.
        fold(base.v_partial_after(i), request.v_partial_after(i));
        fold(base.v_guaranteed_after(i) - base.v_partial_after(i),
             request.v_guaranteed_after(i) - request.v_partial_after(i));
      } else {
        // Eq. (4) pricing never reads V: folding it would only shrink
        // gamma for a parameter the objective ignores.
        fold(base.v_guaranteed_after(i), request.v_guaranteed_after(i));
      }
    }
    if (valid && gamma > 0.0) {
      const double scaled = gamma * cert.base_objective;
      if (scaled > check.lower_bound) {
        check.lower_bound = scaled;
        check.scaled_bound = true;
      }
    }
  }
  return check;
}

}  // namespace chainckpt::core
