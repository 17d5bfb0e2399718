#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "analysis/evaluator.hpp"
#include "core/batch_solver.hpp"
#include "core/optimizer.hpp"
#include "error/injector.hpp"
#include "scenario/traffic.hpp"
#include "service/solver_service.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace chainckpt::scenario {

namespace {

/// The DP lane's SIMD tiers.  The first entry is the reference solve
/// (scalar kernels) whose plan feeds the sim and service lanes; the rest
/// must reproduce it bit for bit.  Each tier clamps to the best one this
/// CPU/build supports -- on a scalar-only host they repeat the scalar
/// kernels, keeping the config COUNT (and hence the report bytes)
/// machine-independent.
const core::simd::SimdTier kConfigs[] = {
    core::simd::SimdTier::kScalar,
    core::simd::SimdTier::kAvx2,
    core::simd::SimdTier::kAvx512,
};

/// Sim-lane flagging interval: in-model cells must satisfy
/// |sim_mean - dp| <= kZFlag * stderr + kRelFloor * |dp|.  4.5 sigmas
/// puts a per-lane false-flag probability around 7e-6, far below the
/// matrix size, and the relative floor absorbs stderr collapse on
/// near-deterministic cells.
constexpr double kZFlag = 4.5;
constexpr double kRelFloor = 0.005;

std::string double_bits_hex(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// Seed for the sim lane's replica streams, decorrelated from the
/// materialization streams (which use stream(spec.seed, 1..4) -- replica
/// indices would collide with them).
std::uint64_t sim_lane_seed(const ScenarioSpec& spec) {
  static const char kTag[] = "sim-lane";
  return fnv1a(kTag, sizeof(kTag) - 1, spec.seed);
}

sim::InjectorFactory make_injector_factory(const ScenarioSpec& spec,
                                           const MaterializedCell& cell) {
  const double lambda_f = cell.actual_platform.lambda_f;
  const double lambda_s = cell.actual_platform.lambda_s;
  const std::uint64_t seed = sim_lane_seed(spec);
  if (spec.failure.law == FailureLaw::kWeibull) {
    const double shape = spec.failure.weibull_shape;
    return [lambda_f, lambda_s, shape, seed](std::uint64_t replica) {
      return std::unique_ptr<error::Injector>(new error::WeibullInjector(
          lambda_f, shape, lambda_s, util::Xoshiro256::stream(seed, replica)));
    };
  }
  return [lambda_f, lambda_s, seed](std::uint64_t replica) {
    return std::unique_ptr<error::Injector>(new error::PoissonInjector(
        lambda_f, lambda_s, util::Xoshiro256::stream(seed, replica)));
  };
}

/// Human-readable planning-law tag for the report column.
std::string planning_law_name(const platform::CostModel& costs) {
  const platform::PlanningLaw& law = costs.planning_law();
  if (law.is_exponential()) return "exponential";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "weibull k=%g", law.weibull_shape);
  return buf;
}

/// Reference solves + cross-configuration equivalence for one cell.
/// Returns the reference OptimizationResults (spec.algorithms order) for
/// the other lanes.
std::vector<core::OptimizationResult> run_dp_lane(const ScenarioSpec& spec,
                                                  const MaterializedCell& cell,
                                                  CellReport& out) {
  // Restart-vs-checkpoint comparison (Sodre et al.): score the
  // restart-only plan -- no intermediate actions, just the mandatory
  // final disk checkpoint -- under the SAME planning law the DP used.
  // One number per cell; the per-algorithm ratio lands in each DP lane.
  const double restart_makespan =
      analysis::PlanEvaluator(cell.chain, cell.modeled_costs)
          .expected_makespan(plan::ResiliencePlan(cell.chain.size()));

  std::vector<core::OptimizationResult> references;
  references.reserve(spec.algorithms.size());
  for (core::Algorithm algorithm : spec.algorithms) {
    DpLaneResult lane;
    lane.algorithm = core::to_string(algorithm);
    lane.configs_identical = true;
    std::uint64_t reference_digest = 0;
    for (const core::simd::SimdTier tier : kConfigs) {
      core::DpContext ctx(cell.chain, cell.modeled_costs);
      ctx.set_simd_tier(tier);
      core::OptimizationResult result = core::optimize(algorithm, ctx);
      const std::uint64_t digest =
          result_digest(result.plan, result.expected_makespan);
      ++lane.configs;
      if (lane.configs == 1) {
        reference_digest = digest;
        lane.digest = hex64(digest);
        lane.expected_makespan = result.expected_makespan;
        lane.makespan_bits = double_bits_hex(result.expected_makespan);
        lane.plan_compact = result.plan.compact_string();
        lane.restart_makespan = restart_makespan;
        lane.restart_ratio = result.expected_makespan != 0.0
                                 ? restart_makespan / result.expected_makespan
                                 : 0.0;
        references.push_back(std::move(result));
      } else if (digest != reference_digest) {
        lane.configs_identical = false;
      }
    }
    out.dp.push_back(std::move(lane));
  }
  return references;
}

void run_sim_lane(const ScenarioSpec& spec, const MaterializedCell& cell,
                  const std::vector<core::OptimizationResult>& references,
                  CellReport& out) {
  const sim::Simulator simulator(cell.chain, cell.actual_costs);
  const sim::InjectorFactory factory = make_injector_factory(spec, cell);
  sim::ExperimentOptions eopts;
  eopts.replicas = spec.replicas;
  eopts.seed = sim_lane_seed(spec);
  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    const sim::ExperimentResult experiment =
        sim::run_experiment(simulator, references[a].plan, factory, eopts);
    SimLaneResult lane;
    lane.algorithm = core::to_string(spec.algorithms[a]);
    lane.dp_prediction = references[a].expected_makespan;
    lane.sim_mean = experiment.makespan.mean();
    lane.sim_stderr = experiment.makespan.stderr_mean();
    lane.replicas = experiment.replicas;
    const double gap = lane.sim_mean - lane.dp_prediction;
    lane.gap_sigmas =
        lane.sim_stderr > 0.0 ? std::abs(gap) / lane.sim_stderr : 0.0;
    lane.relative_gap =
        lane.dp_prediction != 0.0 ? gap / lane.dp_prediction : 0.0;
    const double interval = kZFlag * lane.sim_stderr +
                            kRelFloor * std::abs(lane.dp_prediction);
    lane.within_ci = std::abs(gap) <= interval;
    out.sim.push_back(std::move(lane));
  }
}

void run_service_lane(const ScenarioSpec& spec, const MaterializedCell& cell,
                      const std::vector<core::OptimizationResult>& references,
                      const RunnerOptions& options, CellReport& out) {
  const ArrivalTrace trace = make_trace(spec);

  std::vector<std::uint64_t> reference_digests;
  reference_digests.reserve(references.size());
  for (const core::OptimizationResult& reference : references) {
    reference_digests.push_back(
        result_digest(reference.plan, reference.expected_makespan));
  }

  service::ServiceOptions sopts;
  sopts.workers = options.service_workers;
  sopts.admission.budget_units = 0.0;  // unlimited: inversion-free dispatch
  sopts.admission.max_job_units = 0.0;
  sopts.admission.queue_capacity = trace.arrivals.size() + 8;

  ServiceLaneResult lane;
  lane.jobs = trace.arrivals.size();
  lane.trace_digest = hex64(trace.digest());

  using Clock = std::chrono::steady_clock;
  struct Completion {
    service::JobId id;
    double latency_ms;
  };
  std::vector<Completion> completions;
  std::mutex completions_mutex;
  std::vector<Clock::time_point> submit_times(trace.arrivals.size());

  std::vector<service::JobHandle> handles;
  handles.reserve(trace.arrivals.size());
  std::uint64_t preempted = 0;
  {
    service::SolverService svc(sopts);
    if (options.include_timing) {
      svc.on_completion([&](const service::JobStatus& status) {
        std::lock_guard<std::mutex> lock(completions_mutex);
        completions.push_back({status.id, 0.0});
      });
    }
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
      const Arrival& arrival = trace.arrivals[i];
      const Clock::time_point due =
          start + std::chrono::microseconds(arrival.offset_us);
      std::this_thread::sleep_until(due);
      service::JobRequest request{
          core::BatchJob{spec.algorithms[arrival.algorithm_index], cell.chain,
                         cell.modeled_costs},
          service::SubmitOptions(
              arrival.priority,
              std::chrono::milliseconds(arrival.deadline_ms))};
      submit_times[i] = Clock::now();
      handles.push_back(svc.submit(std::move(request)));
    }

    lane.all_succeeded = true;
    lane.bitwise_ok = true;
    std::vector<service::JobStatus> statuses;
    statuses.reserve(handles.size());
    for (std::size_t i = 0; i < handles.size(); ++i) {
      service::JobStatus status = svc.wait(handles[i]);
      if (status.state != service::JobState::kSucceeded) {
        lane.all_succeeded = false;
      } else {
        const std::uint64_t digest = result_digest(
            status.result.plan, status.result.expected_makespan);
        if (digest != reference_digests[trace.arrivals[i].algorithm_index]) {
          lane.bitwise_ok = false;
        }
      }
      statuses.push_back(std::move(status));
    }

    // Priority inversions, by the stress battery's rule: a higher-class
    // job queued before a lower-class job started, yet dispatched after
    // it.  Jobs that never started or were preempted (their start_seq is
    // the LAST dispatch) are excluded.
    for (const service::JobStatus& high : statuses) {
      if (high.start_seq == 0 || high.preemptions > 0) continue;
      for (const service::JobStatus& low : statuses) {
        if (low.start_seq == 0 || low.preemptions > 0) continue;
        if (static_cast<int>(high.priority) <= static_cast<int>(low.priority)) {
          continue;
        }
        if (high.submit_seq < low.start_seq &&
            low.start_seq < high.start_seq) {
          ++lane.priority_inversions;
        }
      }
    }

    // Exact counter reconciliation: every arrival must be accounted for
    // as a success (folded into all_succeeded so the deterministic
    // report carries it).
    const service::ServiceStats stats = svc.stats();
    if (stats.submitted != trace.arrivals.size() ||
        stats.succeeded != trace.arrivals.size() || stats.rejected != 0) {
      lane.all_succeeded = false;
    }
    preempted = stats.preempted;

    if (options.include_timing) {
      svc.drain();
      const double replay_seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      std::vector<double> latencies;
      {
        std::lock_guard<std::mutex> lock(completions_mutex);
        for (Completion& c : completions) {
          // Job ids are issued in submit order starting at the service's
          // first id; map back through the handles.
          for (std::size_t i = 0; i < handles.size(); ++i) {
            if (handles[i].id() == c.id) {
              c.latency_ms = std::chrono::duration<double, std::milli>(
                                 Clock::now() - submit_times[i])
                                 .count();
              break;
            }
          }
          latencies.push_back(c.latency_ms);
        }
      }
      std::sort(latencies.begin(), latencies.end());
      const auto pct = [&latencies](double q) {
        if (latencies.empty()) return 0.0;
        const std::size_t idx = static_cast<std::size_t>(
            q * static_cast<double>(latencies.size() - 1));
        return latencies[idx];
      };
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"replay_seconds\": %.3f, \"latency_ms_p50\": %.3f, "
                    "\"latency_ms_p95\": %.3f, \"preempted\": %llu}",
                    replay_seconds, pct(0.5), pct(0.95),
                    static_cast<unsigned long long>(preempted));
      lane.timing_json = buf;
    }
  }

  out.service.push_back(std::move(lane));
}

/// Seeded per-parameter-group drift of a cost model: every group (rates,
/// checkpoint/recovery/verification costs) is scaled by an independent
/// exp-symmetric factor in [1/(1+drift), 1+drift].  Per-position models
/// keep their position structure (each stream scaled by its group
/// factor); the planning law is carried over unchanged.
platform::CostModel drift_costs(const platform::CostModel& base,
                                std::size_t n, double drift,
                                util::Xoshiro256& rng) {
  const auto jitter = [&rng, drift] {
    return std::exp((2.0 * rng.uniform01() - 1.0) * std::log1p(drift));
  };
  const double f_lf = jitter(), f_ls = jitter(), f_cd = jitter(),
               f_cm = jitter(), f_rd = jitter(), f_rm = jitter(),
               f_vg = jitter(), f_vp = jitter();
  platform::Platform p = base.platform();
  p.lambda_f *= f_lf;
  p.lambda_s *= f_ls;
  p.c_disk *= f_cd;
  p.c_mem *= f_cm;
  p.r_disk *= f_rd;
  p.r_mem *= f_rm;
  p.v_guaranteed *= f_vg;
  p.v_partial *= f_vp;
  platform::CostModel out = [&] {
    if (base.is_uniform()) return platform::CostModel(p);
    std::vector<double> c_disk(n), c_mem(n), v_g(n), v_p(n), r_disk(n),
        r_mem(n);
    for (std::size_t i = 1; i <= n; ++i) {
      c_disk[i - 1] = base.c_disk_after(i) * f_cd;
      c_mem[i - 1] = base.c_mem_after(i) * f_cm;
      v_g[i - 1] = base.v_guaranteed_after(i) * f_vg;
      v_p[i - 1] = base.v_partial_after(i) * f_vp;
      r_disk[i - 1] = base.r_disk_after(i) * f_rd;
      r_mem[i - 1] = base.r_mem_after(i) * f_rm;
    }
    return platform::CostModel(p, std::move(c_disk), std::move(c_mem),
                               std::move(v_g), std::move(v_p),
                               std::move(r_disk), std::move(r_mem));
  }();
  out.set_planning_law(base.planning_law());
  return out;
}

/// Cache-replay lane: populate a plan-cached BatchSolver with the cell's
/// solves, replay `requests` seeded submissions (a quarter verbatim, the
/// rest parameter-drifted), classify each via PlanCacheStats deltas
/// (serial loop, so the deltas are exact), and oracle every served
/// result against a cache-disabled fresh solve of the SAME request.
void run_cache_lane(const ScenarioSpec& spec, const MaterializedCell& cell,
                    CellReport& out) {
  core::BatchOptions cached_opts;
  cached_opts.plan_cache_epsilon = spec.cache.epsilon;
  core::BatchSolver cached(cached_opts);
  core::BatchOptions fresh_opts;
  fresh_opts.enable_plan_cache = false;
  core::BatchSolver fresh(fresh_opts);

  CacheLaneResult lane;
  lane.requests = spec.cache.requests;
  lane.epsilon = spec.cache.epsilon;
  lane.oracle_ok = true;

  for (core::Algorithm algorithm : spec.algorithms) {
    cached.solve_job(
        core::BatchJob{algorithm, cell.chain, cell.modeled_costs});
  }

  static const char kTag[] = "cache-lane";
  util::Xoshiro256 rng = util::Xoshiro256::stream(
      fnv1a(kTag, sizeof(kTag) - 1, spec.seed), 0);
  const std::size_t n = cell.chain.size();
  for (std::size_t r = 0; r < spec.cache.requests; ++r) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform01() * static_cast<double>(spec.algorithms.size()));
    const core::Algorithm algorithm =
        spec.algorithms[std::min(pick, spec.algorithms.size() - 1)];
    const bool verbatim = rng.uniform01() < 0.25;
    const platform::CostModel request_costs =
        verbatim ? cell.modeled_costs
                 : drift_costs(cell.modeled_costs, n, spec.cache.drift, rng);

    const core::PlanCacheStats before = cached.plan_cache_stats();
    const core::OptimizationResult served = cached.solve_job(
        core::BatchJob{algorithm, cell.chain, request_costs});
    const core::PlanCacheStats after = cached.plan_cache_stats();
    const core::OptimizationResult oracle = fresh.solve_job(
        core::BatchJob{algorithm, cell.chain, request_costs});

    const std::uint64_t served_digest =
        result_digest(served.plan, served.expected_makespan);
    const std::uint64_t oracle_digest =
        result_digest(oracle.plan, oracle.expected_makespan);
    if (after.exact_hits > before.exact_hits) {
      ++lane.exact_hits;
      // A certified exact hit must be indistinguishable from solving.
      if (served_digest != oracle_digest) lane.oracle_ok = false;
    } else if (after.epsilon_hits > before.epsilon_hits) {
      ++lane.epsilon_hits;
      // The epsilon contract is against the TRUE drifted optimum, which
      // the oracle solve computes.
      if (!(served.expected_makespan <=
            (1.0 + spec.cache.epsilon) * oracle.expected_makespan *
                (1.0 + 1e-12))) {
        lane.oracle_ok = false;
      }
    } else {
      ++lane.resolves;
      // A rejected certificate must fall through to a REAL solve.
      if (served_digest != oracle_digest) lane.oracle_ok = false;
    }
  }
  out.cache.push_back(std::move(lane));
}

}  // namespace

CellReport run_cell(const ScenarioSpec& spec, const RunnerOptions& options) {
  const MaterializedCell cell = materialize(spec);

  CellReport report;
  report.name = spec.name;
  report.seed = spec.seed;
  report.planning_law = planning_law_name(cell.modeled_costs);
  report.assumptions_hold = spec.failure.assumptions_hold();
  report.flagged = !report.assumptions_hold;

  const std::vector<core::OptimizationResult> references =
      run_dp_lane(spec, cell, report);
  run_sim_lane(spec, cell, references, report);
  if (spec.traffic.kind != TrafficKind::kNone) {
    run_service_lane(spec, cell, references, options, report);
  }
  if (spec.cache.enabled) {
    run_cache_lane(spec, cell, report);
  }

  bool configs_ok = true;
  for (const DpLaneResult& dp : report.dp) {
    configs_ok = configs_ok && dp.configs_identical;
  }
  for (const SimLaneResult& sim : report.sim) {
    if (!sim.within_ci) report.diverged = true;
  }
  bool service_ok = true;
  for (const ServiceLaneResult& svc : report.service) {
    service_ok = service_ok && svc.all_succeeded && svc.bitwise_ok &&
                 svc.priority_inversions == 0;
  }
  bool cache_ok = true;
  for (const CacheLaneResult& c : report.cache) {
    cache_ok = cache_ok && c.oracle_ok;
  }
  report.ok = configs_ok && service_ok && cache_ok &&
              (report.assumptions_hold ? !report.diverged : true);
  return report;
}

ScenarioReport run_matrix(const std::vector<ScenarioSpec>& specs,
                          const RunnerOptions& options) {
  ScenarioReport report;
  report.master_seed = options.master_seed;
  report.cells.resize(specs.size());
  util::parallel_for(0, specs.size(), [&](std::size_t i) {
    report.cells[i] = run_cell(specs[i], options);
  });
  report.finalize();
  return report;
}

}  // namespace chainckpt::scenario
