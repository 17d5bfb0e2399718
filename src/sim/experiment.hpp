// Replicated Monte-Carlo experiments.
//
// Runs N independent replicas of a plan, in parallel, with per-replica
// RNG streams derived from (seed, replica index) so results are identical
// for every thread count.  Per-block partial statistics are merged in a
// fixed order to keep even the floating-point rounding deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace chainckpt::sim {

struct ExperimentResult {
  util::RunningStats makespan;
  /// Means over replicas of the main event counters.
  double mean_fail_stops = 0.0;
  double mean_silent_corruptions = 0.0;
  double mean_partial_detections = 0.0;
  double mean_partial_misses = 0.0;
  double mean_guaranteed_detections = 0.0;
  double mean_memory_recoveries = 0.0;
  double mean_disk_recoveries = 0.0;
  std::size_t replicas = 0;
};

struct ExperimentOptions {
  std::size_t replicas = 10000;
  std::uint64_t seed = 42;
};

ExperimentResult run_experiment(const Simulator& simulator,
                                const plan::ResiliencePlan& plan,
                                const ExperimentOptions& options = {});

/// Builds the injector for one replica.  Must be a pure function of the
/// replica index (thread-safe, deterministic) so results stay identical
/// for every thread count; derive per-replica streams with
/// util::Xoshiro256::stream(seed, replica).
using InjectorFactory =
    std::function<std::unique_ptr<error::Injector>(std::uint64_t replica)>;

/// Generalized experiment: replicas draw their errors from
/// `factory(replica)` instead of the built-in PoissonInjector.  This is
/// how the scenario matrix (src/scenario/) runs heavy-tailed failure
/// laws through the unchanged simulator; the default overload above is
/// equivalent to a factory returning PoissonInjector(lambda_f, lambda_s,
/// stream(options.seed, replica)).
ExperimentResult run_experiment(const Simulator& simulator,
                                const plan::ResiliencePlan& plan,
                                const InjectorFactory& factory,
                                const ExperimentOptions& options = {});

}  // namespace chainckpt::sim
