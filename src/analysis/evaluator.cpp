#include "analysis/evaluator.hpp"

#include <stdexcept>

#include "util/assert.hpp"

namespace chainckpt::analysis {

PlanEvaluator::PlanEvaluator(chain::TaskChain chain,
                             platform::CostModel costs)
    : chain_(std::move(chain)),
      costs_(std::move(costs)),
      source_(chain_, costs_) {
  CHAINCKPT_REQUIRE(!chain_.empty(), "evaluator needs a non-empty chain");
}

double PlanEvaluator::partial_segment_value(const plan::ResiliencePlan& plan,
                                            std::size_t v1, std::size_t v2,
                                            const LeftContext& left) const {
  // Verification points inside (v1, v2): the partial verifications of the
  // plan, in ascending order; the segment is closed by the guaranteed
  // verification at v2.
  std::vector<std::size_t> points;
  points.push_back(v1);
  for (std::size_t p = v1 + 1; p < v2; ++p) {
    if (has_partial_verif(plan.action(p))) points.push_back(p);
  }
  const double g = costs_.miss();

  // Right-to-left accumulation of E_partial (ep) and E_right (er), exactly
  // as the DP does with fixed choices (see dp_partial.cpp).  The last
  // interval (p1, v2] is closed by the guaranteed verification at v2:
  // E_right there is R_M (immediate detection).
  double ep_next = 0.0;
  double er_next = left.r_mem;  // E_right(..., v2, v2) = R_M
  for (std::size_t k = points.size(); k-- > 0;) {
    const std::size_t p1 = points[k];
    const bool terminal = (k + 1 == points.size());
    const std::size_t p2 = terminal ? v2 : points[k + 1];
    const Interval seg = source_.step_interval(p1, p2);
    const double v = costs_.v_partial_after(p2);
    const double ep =
        terminal
            ? e_partial_terminal(seg, v, costs_.v_guaranteed_after(v2), g,
                                 left)
            : e_minus_segment(seg, v, g, left, er_next) *
                      source_.interval(p2, v2).exp_fs() +
                  ep_next;
    er_next = e_right_step(seg, v, g, left.r_disk, left.r_mem, left.e_mem,
                           er_next);
    ep_next = ep;
  }
  return ep_next;
}

FormulaMode PlanEvaluator::resolve_mode(const plan::ResiliencePlan& plan,
                                        FormulaMode mode) const {
  const bool has_partials = plan.uses_partial_verifications();
  if (mode == FormulaMode::kAuto) {
    return has_partials ? FormulaMode::kPartialFramework
                        : FormulaMode::kTwoLevel;
  }
  if (mode == FormulaMode::kTwoLevel && has_partials) {
    throw std::invalid_argument(
        "kTwoLevel (Eq. 4) cannot evaluate plans with partial "
        "verifications; use kPartialFramework");
  }
  return mode;
}

template <typename Visitor>
void PlanEvaluator::walk_segments(const plan::ResiliencePlan& plan,
                                  FormulaMode mode, Visitor&& visit) const {
  CHAINCKPT_REQUIRE(plan.size() == chain_.size(),
                    "plan size must match chain size");
  plan.validate();
  mode = resolve_mode(plan, mode);

  const std::size_t n = chain_.size();

  std::size_t d1 = 0;  // last disk checkpoint
  for (std::size_t db = 1; db <= n; ++db) {
    if (!has_disk_checkpoint(plan.action(db))) continue;
    // Disk segment (d1, db].
    double e_mem_acc = 0.0;  // E_mem(d1, m1), accumulated left-to-right
    std::size_t m1 = d1;     // last memory checkpoint
    for (std::size_t mb = d1 + 1; mb <= db; ++mb) {
      if (!has_memory_checkpoint(plan.action(mb))) continue;
      // Memory segment (m1, mb].
      double e_verif_acc = 0.0;  // E_verif(d1, m1, v1), accumulated
      std::size_t v1 = m1;       // last guaranteed verification
      for (std::size_t vb = m1 + 1; vb <= mb; ++vb) {
        if (!has_guaranteed_verif(plan.action(vb))) continue;
        // Verified segment (v1, vb].
        const LeftContext left{costs_.r_disk_after(d1),
                               costs_.r_mem_after(m1), e_mem_acc,
                               e_verif_acc};
        const double segment =
            mode == FormulaMode::kTwoLevel
                ? expected_verified_segment(source_.interval(v1, vb),
                                            costs_.v_guaranteed_after(vb),
                                            left)
                : partial_segment_value(plan, v1, vb, left);
        visit(SegmentValue{d1, m1, v1, vb, segment});
        e_verif_acc += segment;
        v1 = vb;
      }
      CHAINCKPT_ASSERT(
          v1 == mb,
          "memory checkpoints must carry a guaranteed verification");
      e_mem_acc += e_verif_acc + costs_.c_mem_after(mb);
      m1 = mb;
    }
    CHAINCKPT_ASSERT(m1 == db,
                     "disk checkpoints must carry a memory checkpoint");
    d1 = db;
  }
  CHAINCKPT_ASSERT(d1 == n, "the final task must carry a disk checkpoint");
}

double PlanEvaluator::expected_makespan(const plan::ResiliencePlan& plan,
                                        FormulaMode mode) const {
  double total = 0.0;
  walk_segments(plan, mode,
                [&](const SegmentValue& s) { total += s.value; });
  for (std::size_t i = 1; i <= plan.size(); ++i) {
    const plan::Action a = plan.action(i);
    if (has_memory_checkpoint(a)) total += costs_.c_mem_after(i);
    if (has_disk_checkpoint(a)) total += costs_.c_disk_after(i);
  }
  return total;
}

double PlanEvaluator::normalized_makespan(const plan::ResiliencePlan& plan,
                                          FormulaMode mode) const {
  return expected_makespan(plan, mode) / chain_.total_weight();
}

std::vector<SegmentValue> PlanEvaluator::verified_segments(
    const plan::ResiliencePlan& plan, FormulaMode mode) const {
  std::vector<SegmentValue> out;
  walk_segments(plan, mode, [&](const SegmentValue& s) { out.push_back(s); });
  return out;
}

}  // namespace chainckpt::analysis
