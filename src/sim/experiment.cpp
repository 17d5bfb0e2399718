#include "sim/experiment.hpp"

#include <vector>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace chainckpt::sim {

namespace {

/// Replicas per parallel work item.  The blocks merge in a fixed order, so
/// results do not depend on the thread count.
constexpr std::size_t kReplicasPerBlock = 256;

struct BlockAccumulator {
  util::RunningStats makespan;
  double fail_stops = 0.0;
  double silent_corruptions = 0.0;
  double partial_detections = 0.0;
  double partial_misses = 0.0;
  double guaranteed_detections = 0.0;
  double memory_recoveries = 0.0;
  double disk_recoveries = 0.0;
};
}  // namespace

ExperimentResult run_experiment(const Simulator& simulator,
                                const plan::ResiliencePlan& plan,
                                const ExperimentOptions& options) {
  // Identical to the historical in-line PoissonInjector path: run_seeded
  // constructs exactly this injector per replica.
  const double lambda_f = simulator.costs().lambda_f();
  const double lambda_s = simulator.costs().lambda_s();
  const std::uint64_t seed = options.seed;
  return run_experiment(
      simulator, plan,
      [lambda_f, lambda_s, seed](std::uint64_t replica) {
        return std::make_unique<error::PoissonInjector>(
            lambda_f, lambda_s, util::Xoshiro256::stream(seed, replica));
      },
      options);
}

ExperimentResult run_experiment(const Simulator& simulator,
                                const plan::ResiliencePlan& plan,
                                const InjectorFactory& factory,
                                const ExperimentOptions& options) {
  CHAINCKPT_REQUIRE(options.replicas >= 1, "need at least one replica");
  CHAINCKPT_REQUIRE(static_cast<bool>(factory),
                    "injector factory must be callable");

  const std::size_t blocks =
      (options.replicas + kReplicasPerBlock - 1) / kReplicasPerBlock;
  std::vector<BlockAccumulator> partial(blocks);

  util::parallel_for(0, blocks, [&](std::size_t b) {
    const std::size_t lo = b * kReplicasPerBlock;
    const std::size_t hi = std::min(options.replicas, lo + kReplicasPerBlock);
    BlockAccumulator& acc = partial[b];
    for (std::size_t r = lo; r < hi; ++r) {
      const auto injector = factory(r);
      const SimulationStats s = simulator.run(plan, *injector);
      acc.makespan.add(s.makespan);
      acc.fail_stops += static_cast<double>(s.fail_stop_errors);
      acc.silent_corruptions += static_cast<double>(s.silent_corruptions);
      acc.partial_detections += static_cast<double>(s.partial_detections);
      acc.partial_misses += static_cast<double>(s.partial_misses);
      acc.guaranteed_detections +=
          static_cast<double>(s.guaranteed_detections);
      acc.memory_recoveries += static_cast<double>(s.memory_recoveries);
      acc.disk_recoveries += static_cast<double>(s.disk_recoveries);
    }
  });

  ExperimentResult out;
  out.replicas = options.replicas;
  double fail_stops = 0.0, silents = 0.0, pdet = 0.0, pmiss = 0.0;
  double gdet = 0.0, mrec = 0.0, drec = 0.0;
  for (const auto& acc : partial) {  // fixed order: deterministic rounding
    out.makespan.merge(acc.makespan);
    fail_stops += acc.fail_stops;
    silents += acc.silent_corruptions;
    pdet += acc.partial_detections;
    pmiss += acc.partial_misses;
    gdet += acc.guaranteed_detections;
    mrec += acc.memory_recoveries;
    drec += acc.disk_recoveries;
  }
  const auto denom = static_cast<double>(options.replicas);
  out.mean_fail_stops = fail_stops / denom;
  out.mean_silent_corruptions = silents / denom;
  out.mean_partial_detections = pdet / denom;
  out.mean_partial_misses = pmiss / denom;
  out.mean_guaranteed_detections = gdet / denom;
  out.mean_memory_recoveries = mrec / denom;
  out.mean_disk_recoveries = drec / denom;
  return out;
}

}  // namespace chainckpt::sim
