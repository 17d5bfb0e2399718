#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "chain/patterns.hpp"
#include "plan/plan_builder.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"

namespace chainckpt::sim {
namespace {

TEST(Experiment, ErrorFreeReplicasAreIdentical) {
  platform::Platform p = platform::hera();
  p.lambda_f = 0.0;
  p.lambda_s = 0.0;
  const auto chain = chain::make_uniform(5, 1000.0);
  const Simulator sim(chain, platform::CostModel(p));
  const auto plan = plan::ResiliencePlan(5);
  ExperimentOptions options;
  options.replicas = 100;
  const auto result = run_experiment(sim, plan, options);
  EXPECT_EQ(result.replicas, 100u);
  EXPECT_DOUBLE_EQ(result.makespan.min(), result.makespan.max());
  EXPECT_DOUBLE_EQ(result.makespan.variance(), 0.0);
  EXPECT_DOUBLE_EQ(result.mean_fail_stops, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_silent_corruptions, 0.0);
}

TEST(Experiment, DeterministicAcrossThreadCounts) {
  const auto chain = chain::make_uniform(10, 25000.0);
  const Simulator sim(chain, platform::CostModel(platform::hera()));
  const auto plan = plan::PlanBuilder(10).memory_checkpoint_at(5).build();

  ExperimentOptions a;
  a.replicas = 2000;
  a.seed = 7;
  util::set_parallelism(1);
  const auto serial = run_experiment(sim, plan, a);
  util::set_parallelism(8);
  const auto parallel = run_experiment(sim, plan, a);
  util::set_parallelism(0);
  EXPECT_DOUBLE_EQ(serial.makespan.mean(), parallel.makespan.mean());
  EXPECT_DOUBLE_EQ(serial.makespan.variance(),
                   parallel.makespan.variance());
}

TEST(Experiment, SeedChangesResults) {
  const auto chain = chain::make_uniform(10, 25000.0);
  const Simulator sim(chain, platform::CostModel(platform::hera()));
  const auto plan = plan::PlanBuilder(10).memory_checkpoint_at(5).build();
  ExperimentOptions a;
  a.replicas = 500;
  a.seed = 1;
  ExperimentOptions b = a;
  b.seed = 2;
  const auto ra = run_experiment(sim, plan, a);
  const auto rb = run_experiment(sim, plan, b);
  EXPECT_NE(ra.makespan.mean(), rb.makespan.mean());
}

TEST(Experiment, EventMeansMatchModelScale) {
  // Expected fail-stop count per replica ~ lambda_f * (W + overheads);
  // with Hera at 25000s that is ~0.024.  Verify the MC mean is in the
  // right ballpark (within 3x), which catches unit mistakes.
  const auto chain = chain::make_uniform(10, 25000.0);
  const Simulator sim(chain, platform::CostModel(platform::hera()));
  const auto plan = plan::PlanBuilder(10).memory_checkpoint_at(5).build();
  ExperimentOptions options;
  options.replicas = 20000;
  const auto result = run_experiment(sim, plan, options);
  EXPECT_GT(result.mean_fail_stops, 0.024 / 3.0);
  EXPECT_LT(result.mean_fail_stops, 0.024 * 3.0);
  EXPECT_GT(result.mean_silent_corruptions, 0.085 / 3.0);
  EXPECT_LT(result.mean_silent_corruptions, 0.085 * 3.0);
}

TEST(Experiment, RejectsDegenerateOptions) {
  const auto chain = chain::make_uniform(3, 300.0);
  const Simulator sim(chain, platform::CostModel(platform::hera()));
  const auto plan = plan::ResiliencePlan(3);
  ExperimentOptions bad;
  bad.replicas = 0;
  EXPECT_THROW(run_experiment(sim, plan, bad), std::invalid_argument);
}

}  // namespace
}  // namespace chainckpt::sim
