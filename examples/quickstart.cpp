// Quickstart: optimize the resilience plan of a 20-task workflow on the
// Hera platform, inspect it, and sanity-check the expectation with a
// Monte-Carlo run.
//
//   $ ./quickstart [--platform Hera] [--tasks 20] [--weight 25000]
#include <cstdint>
#include <exception>
#include <iostream>
#include <stdexcept>

#include "analysis/breakdown.hpp"
#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/optimizer.hpp"
#include "plan/plan_io.hpp"
#include "plan/render.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "sim/validation.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace chainckpt;
  util::CliParser cli;
  cli.add_option("platform", "Hera", "Table I platform name");
  cli.add_option("tasks", "20", "number of tasks in the chain");
  cli.add_option("weight", "25000", "total computational weight (s)");
  double weight = 0.0;
  chain::TaskChain chain;
  platform::Platform platform;
  try {
    cli.parse(argc, argv);
    const std::int64_t tasks = cli.get_int("tasks");
    if (tasks < 1) throw std::invalid_argument("--tasks must be at least 1");
    weight = cli.get_double("weight");
    // 1. Describe the application: a linear chain of equal-sized kernels
    //    (make_uniform rejects a weight that is not positive and finite).
    chain = chain::make_uniform(static_cast<std::size_t>(tasks), weight);
    // 2. Pick a platform (error rates + resilience costs).
    platform = platform::by_name(cli.get("platform"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text("quickstart: optimal two-level plan demo");
    return 0;
  }

  const platform::CostModel costs(platform);
  std::cout << "Platform: " << platform.describe() << "\n";
  std::cout << "Chain:    " << chain.describe() << "\n\n";

  // 3. Run the paper's full optimizer (disk + memory checkpoints,
  //    guaranteed + partial verifications).
  const auto result = core::optimize(core::Algorithm::kADMV, chain, costs);
  std::cout << "Optimal expected makespan: " << result.expected_makespan
            << "s (normalized " << result.expected_makespan / weight
            << ")\n\n";
  std::cout << plan::render_figure(result.plan, "Optimal ADMV plan")
            << '\n';

  // 4. Understand where the time goes.
  const analysis::PlanEvaluator evaluator(chain, costs);
  std::cout << analysis::breakdown(evaluator, result.plan).describe()
            << "\n\n";

  // 5. Cross-check the analytic expectation by simulation.
  sim::ExperimentOptions mc;
  mc.replicas = 20000;
  const auto report =
      sim::validate_plan(chain, costs, result.plan, mc);
  std::cout << "Monte-Carlo check: " << report.describe() << "\n\n";

  // 6. Plans serialize to a stable text format.
  std::cout << "Serialized plan:\n" << plan::to_text(result.plan);
  return 0;
}
