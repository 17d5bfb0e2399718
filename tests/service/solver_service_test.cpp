#include "service/solver_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "slab_gate.hpp"
#include "util/parallel.hpp"

namespace chainckpt::service {
namespace {

using std::chrono::milliseconds;

/// Mixed workload covering every algorithm class, with the single-level
/// jobs carrying n = 400 (the acceptance bound for the async-vs-sync
/// bitwise check).
std::vector<core::BatchJob> mixed_jobs() {
  const platform::CostModel hera{platform::hera()};
  const platform::CostModel atlas{platform::atlas()};
  std::vector<core::BatchJob> jobs;
  jobs.push_back({core::Algorithm::kADVstar,
                  chain::make_uniform(400, 25000.0), hera});
  jobs.push_back({core::Algorithm::kAD, chain::make_uniform(400, 25000.0),
                  hera});
  jobs.push_back({core::Algorithm::kADMVstar,
                  chain::make_decrease(60, 25000.0), hera});
  jobs.push_back({core::Algorithm::kADMV, chain::make_highlow(30, 25000.0),
                  atlas});
  jobs.push_back({core::Algorithm::kADVstar,
                  chain::make_highlow(30, 25000.0), atlas});
  jobs.push_back({core::Algorithm::kPeriodic,
                  chain::make_uniform(25, 25000.0), hera});
  jobs.push_back({core::Algorithm::kDaly, chain::make_uniform(25, 25000.0),
                  hera});
  return jobs;
}

TEST(SolverService, AsyncResultsMatchSynchronousBatchSolverBitwise) {
  const auto jobs = mixed_jobs();
  core::BatchSolver sync_solver;
  const auto sync = sync_solver.solve(jobs);

  SolverService service;
  std::vector<JobHandle> handles;
  for (const auto& job : jobs) handles.push_back(service.submit({job}));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobStatus status = service.wait(handles[i]);
    ASSERT_EQ(status.state, JobState::kSucceeded) << i << ": "
                                                  << status.error;
    EXPECT_EQ(status.result.expected_makespan, sync[i].expected_makespan)
        << i;
    EXPECT_EQ(status.result.plan, sync[i].plan) << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, jobs.size());
  EXPECT_EQ(stats.succeeded, jobs.size());
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  // Same table-cache behaviour as the synchronous batch: one build per
  // distinct table key, whichever job reaches the key first.
  EXPECT_EQ(stats.solver.tables_built,
            sync_solver.stats_snapshot().tables_built);
}

TEST(SolverService, RejectsOverCapOversizedAndEmptyJobs) {
  ServiceOptions options;
  options.admission.max_job_units =
      price_units(core::Algorithm::kADMV, 40);
  SolverService service(options);

  const platform::CostModel costs{platform::hera()};
  const JobHandle over_cap = service.submit(
      {{core::Algorithm::kADMV, chain::make_uniform(120, 25000.0), costs}});
  JobStatus status = service.poll(over_cap);
  EXPECT_EQ(status.state, JobState::kRejected);
  EXPECT_FALSE(status.error.empty());

  const JobHandle empty = service.submit(
      {{core::Algorithm::kADVstar, chain::TaskChain{}, costs}});
  EXPECT_EQ(service.poll(empty).state, JobState::kRejected);

  const JobHandle too_long = service.submit(
      {{core::Algorithm::kADVstar,
        chain::make_uniform(core::DpContext::kDefaultMaxN + 1, 25000.0),
        costs}});
  EXPECT_EQ(service.poll(too_long).state, JobState::kRejected);

  EXPECT_EQ(service.stats().rejected, 3u);
  EXPECT_EQ(service.stats().succeeded, 0u);

  // An empty handle reports terminal kRejected, never a live state.
  const JobStatus none = service.poll(JobHandle{});
  EXPECT_EQ(none.state, JobState::kRejected);
  EXPECT_FALSE(none.error.empty());
  EXPECT_EQ(service.wait(JobHandle{}).state, JobState::kRejected);
}

TEST(SolverService, ThrowingCallbackIsSwallowedAndAccountingSurvives) {
  SolverService service;
  std::atomic<int> fired{0};
  service.on_completion([&](const JobStatus&) {
    ++fired;
    throw std::runtime_error("exporter hiccup");
  });
  const platform::CostModel costs{platform::hera()};
  const core::BatchJob job{core::Algorithm::kADVstar,
                           chain::make_uniform(60, 25000.0), costs};
  const JobHandle first = service.submit({job});
  EXPECT_EQ(service.wait(first).state, JobState::kSucceeded);
  // The throw neither double-completed the job nor wedged the worker:
  // a second job still runs to completion with sane counters.
  const JobHandle second = service.submit({job});
  EXPECT_EQ(service.wait(second).state, JobState::kSucceeded);
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.succeeded, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.inflight_units, 0.0);
}

TEST(SolverService, QueueCapacityRejectsTheOverflow) {
  ServiceOptions options;
  options.workers = 1;
  options.admission.queue_capacity = 1;
  SolverService service(options);
  const platform::CostModel costs{platform::hera()};
  // The gate pins the single worker on the blocker while the queue fills,
  // so the capacity check sees a deterministic queue however fast the
  // blocker would otherwise finish.
  SlabGate gate(1);
  const JobHandle blocker = service.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(300, 25000.0),
        costs}});
  ASSERT_TRUE(gate.wait_parked(1));
  const JobHandle queued = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(50, 25000.0),
        costs}});
  const JobHandle overflow = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(60, 25000.0),
        costs}});
  EXPECT_EQ(service.poll(overflow).state, JobState::kRejected);
  gate.release();
  EXPECT_EQ(service.wait(blocker).state, JobState::kSucceeded);
  EXPECT_EQ(service.wait(queued).state, JobState::kSucceeded);
}

TEST(SolverService, CancelQueuedJobNeverRuns) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);
  const platform::CostModel costs{platform::hera()};
  // The gate holds the blocker on the single worker until the victim is
  // cancelled, so the victim is still queued when the cancel lands.
  SlabGate gate(1);
  const JobHandle blocker = service.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(250, 25000.0),
        costs}});
  const JobHandle victim = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(100, 25000.0),
        costs}});
  EXPECT_TRUE(service.cancel(victim));
  const JobStatus status = service.wait(victim);
  EXPECT_EQ(status.state, JobState::kCancelled);
  gate.release();
  EXPECT_EQ(service.wait(blocker).state, JobState::kSucceeded);
  // Terminal jobs cannot be re-cancelled; empty handles are a no-op.
  EXPECT_FALSE(service.cancel(victim));
  EXPECT_FALSE(service.cancel(JobHandle{}));
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(SolverService, CancelRunningJobInterruptsTheSolve) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);
  // The gate parks the solve after its first committed slab, so the
  // cancel lands mid-solve however fast the solve would otherwise run.
  SlabGate gate(1);
  const JobHandle handle = service.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(400, 25000.0),
        platform::CostModel{platform::hera()}}});
  ASSERT_TRUE(gate.wait_parked(1));
  ASSERT_EQ(service.poll(handle).state, JobState::kRunning);
  EXPECT_TRUE(service.cancel(handle));
  gate.release();
  const JobStatus status = service.wait(handle);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.stats().solver.jobs_interrupted, 1u);
}

TEST(SolverService, DeadlineExpiresQueuedAndRunningJobs) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);
  const platform::CostModel costs{platform::hera()};
  // Expires mid-solve: the gate parks the solve's threads after their
  // first committed slab until both deadlines have passed on the tokens'
  // clock.  Under load the deadline may pass before any slab commits;
  // the solve then expires at its next poll without parking.
  SlabGate gate(1);
  const JobHandle running = service.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(400, 25000.0),
        costs},
       milliseconds(25)});
  // Expires in the queue: the blocker above outlives this deadline.
  const JobHandle queued = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(200, 25000.0),
        costs},
       milliseconds(1)});
  const auto both_passed = core::CancelToken::Clock::now() + milliseconds(25);
  std::this_thread::sleep_until(both_passed);
  gate.release();
  EXPECT_EQ(service.wait(running).state, JobState::kExpired);
  EXPECT_EQ(service.wait(queued).state, JobState::kExpired);
  EXPECT_EQ(service.stats().expired, 2u);
  EXPECT_EQ(service.stats().succeeded, 0u);
}

TEST(SolverService, CompletionCallbackFiresExactlyOncePerJob) {
  ServiceOptions options;
  options.admission.max_job_units = price_units(core::Algorithm::kADMV, 40);
  SolverService service(options);
  std::mutex seen_mutex;
  std::map<JobId, int> seen;
  std::map<JobId, JobState> states;
  service.on_completion([&](const JobStatus& status) {
    const std::lock_guard<std::mutex> lock(seen_mutex);
    ++seen[status.id];
    states[status.id] = status.state;
  });

  const platform::CostModel costs{platform::hera()};
  const JobHandle ok = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(80, 25000.0),
        costs}});
  const JobHandle rejected = service.submit(
      {{core::Algorithm::kADMV, chain::make_uniform(200, 25000.0), costs}});
  service.wait(ok);
  service.drain();
  // wait()/drain() order on the job's terminal state, not on callback
  // completion -- the callback runs on the worker right after; give it a
  // bounded moment to land.
  for (int i = 0; i < 2000; ++i) {
    {
      const std::lock_guard<std::mutex> lock(seen_mutex);
      if (seen.size() == 2u) break;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }

  const std::lock_guard<std::mutex> lock(seen_mutex);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[ok.id()], 1);
  EXPECT_EQ(seen[rejected.id()], 1);
  EXPECT_EQ(states[ok.id()], JobState::kSucceeded);
  EXPECT_EQ(states[rejected.id()], JobState::kRejected);
}

TEST(SolverService, AdmissionBudgetQueuesButEventuallyRunsEverything) {
  ServiceOptions options;
  // Budget fits one mid-sized ADV* job at a time, so the burst drains
  // serially through the priced gate -- and still all succeeds.
  options.admission.budget_units =
      price_units(core::Algorithm::kADVstar, 220);
  SolverService service(options);
  const platform::CostModel costs{platform::hera()};
  std::vector<JobHandle> handles;
  for (int i = 0; i < 5; ++i) {
    handles.push_back(service.submit(
        {{core::Algorithm::kADVstar, chain::make_uniform(200, 25000.0),
          costs}}));
  }
  for (const auto& handle : handles) {
    EXPECT_EQ(service.wait(handle).state, JobState::kSucceeded);
  }
  EXPECT_EQ(service.stats().succeeded, 5u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(SolverService, LruBudgetEvictsTablesWhileResultsStayExact) {
  ServiceOptions options;
  options.solver.cache_budget_bytes = 512 * 1024;  // ~ one small pair
  SolverService service(options);
  const platform::CostModel costs{platform::hera()};
  std::vector<core::BatchJob> jobs;
  for (std::size_t n : {120, 140, 160, 180}) {
    jobs.push_back({core::Algorithm::kADVstar,
                    chain::make_uniform(n, 25000.0), costs});
  }
  std::vector<JobHandle> handles;
  for (const auto& job : jobs) handles.push_back(service.submit({job}));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobStatus status = service.wait(handles[i]);
    ASSERT_EQ(status.state, JobState::kSucceeded);
    const auto standalone =
        core::optimize(jobs[i].algorithm, jobs[i].chain, jobs[i].costs);
    EXPECT_EQ(status.result.expected_makespan,
              standalone.expected_makespan);
    EXPECT_EQ(status.result.plan, standalone.plan);
  }
  EXPECT_GT(service.stats().solver.tables_evicted, 0u);
}

TEST(SolverService, CalibrationWarmsEstimatesAndScratchReleases) {
  SolverService service;
  const platform::CostModel costs{platform::hera()};
  const JobHandle handle = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(150, 25000.0),
        costs}});
  ASSERT_EQ(service.wait(handle).state, JobState::kSucceeded);
  const auto estimate = service.estimate(core::Algorithm::kADVstar, 150);
  EXPECT_GT(estimate.cost_units, 0.0);
  EXPECT_GE(estimate.seconds, 0.0);  // calibrated by the completed job
  service.drain();
  const std::size_t budgeted = service.stats().solver.budgeted_bytes;
  EXPECT_GT(budgeted, 0u);
  EXPECT_EQ(service.release_scratch(), budgeted);
  EXPECT_EQ(service.stats().solver.budgeted_bytes, 0u);
}

TEST(SolverService, PriorityOrderingDispatchesHigherClassFirst) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);
  const platform::CostModel costs{platform::hera()};
  // Pin the single worker (the gate holds the blocker until both jobs are
  // queued), then queue a batch job before an urgent one; dispatch rank
  // (class first, FIFO within class) must start the urgent job first,
  // observable through the service-wide event order.
  SlabGate gate(1);
  const JobHandle blocker = service.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(250, 25000.0),
        costs}});
  ASSERT_TRUE(gate.wait_parked(1));
  const JobHandle batch = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(60, 25000.0), costs},
       {Priority::kBatch}});
  const JobHandle urgent = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(50, 25000.0), costs},
       {Priority::kUrgent}});
  gate.release();
  EXPECT_EQ(service.wait(blocker).state, JobState::kSucceeded);
  const JobStatus batch_status = service.wait(batch);
  const JobStatus urgent_status = service.wait(urgent);
  EXPECT_EQ(batch_status.state, JobState::kSucceeded);
  EXPECT_EQ(urgent_status.state, JobState::kSucceeded);
  EXPECT_LT(urgent_status.submit_seq, urgent_status.start_seq);
  // Submitted later, dispatched earlier.
  EXPECT_GT(urgent_status.submit_seq, batch_status.submit_seq);
  EXPECT_LT(urgent_status.start_seq, batch_status.start_seq);
}

TEST(SolverService, PreemptionLetsUrgentDeadlineJumpAndVictimResumes) {
  const platform::CostModel costs{platform::hera()};
  const core::BatchJob victim_work{core::Algorithm::kADMVstar,
                                   chain::make_uniform(250, 25000.0), costs};
  core::BatchSolver reference;
  const auto expected = reference.solve_job(victim_work);

  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);
  // The gate parks the victim once 8 of its 250 slabs have committed, so
  // the preemption below lands mid-solve on every build and host: after
  // release, each of the victim's threads sees it at its next poll.
  // Declared after the service, so a failed assertion releases it before
  // the service joins its threads.
  SlabGate gate(8);
  const JobHandle victim = service.submit(
      {victim_work, {Priority::kBatch}});
  ASSERT_TRUE(gate.wait_parked(1));
  ASSERT_EQ(service.poll(victim).state, JobState::kRunning);
  // The urgent class is uncalibrated, so its deadline counts as at-risk
  // and the dispatcher displaces the running batch job.
  const JobHandle urgent = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(50, 25000.0), costs},
       {Priority::kUrgent, std::chrono::seconds(60)}});
  gate.release();
  const JobStatus urgent_status = service.wait(urgent);
  EXPECT_EQ(urgent_status.state, JobState::kSucceeded);
  const JobStatus victim_status = service.wait(victim);
  ASSERT_EQ(victim_status.state, JobState::kSucceeded);
  EXPECT_GE(victim_status.preemptions, 1u);
  EXPECT_EQ(victim_status.starts, victim_status.preemptions + 1);
  // The urgent job ran while the preempted batch job was set aside.
  EXPECT_LT(urgent_status.start_seq, victim_status.start_seq);

  // The displaced solve resumed its checkpoint rather than restarting,
  // and the result is bit-identical to an undisturbed solve.
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.preempted, 1u);
  EXPECT_GE(stats.solver.checkpoints_saved, 1u);
  EXPECT_GE(stats.solver.checkpoints_resumed, 1u);
  EXPECT_GT(stats.solver.checkpoint_slabs_skipped, 0u);
  EXPECT_EQ(victim_status.result.expected_makespan,
            expected.expected_makespan);
  EXPECT_EQ(victim_status.result.plan, expected.plan);
}

TEST(SolverService, EveryConfiguredWorkerRunsAJob) {
  // More workers than threads parallel_for uses: each worker is its own
  // dispatch thread, so all of them run a job at once.  The gate keeps
  // every job running until the count has been observed.
  const std::size_t workers =
      static_cast<std::size_t>(util::hardware_parallelism()) + 2;
  ServiceOptions options;
  options.workers = workers;
  SolverService service(options);
  SlabGate gate(1);
  const platform::CostModel costs{platform::hera()};
  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < workers; ++i) {
    handles.push_back(service.submit(
        {{core::Algorithm::kADMVstar, chain::make_uniform(60 + i, 25000.0),
          costs}}));
  }
  std::size_t peak = 0;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(20);
  while (peak < workers && std::chrono::steady_clock::now() < give_up) {
    peak = std::max(peak, service.stats().running);
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(peak, workers);
  gate.release();
  for (const JobHandle& handle : handles) {
    EXPECT_EQ(service.wait(handle).state, JobState::kSucceeded);
  }
}

TEST(SolverService, DeadlineInfeasibleSubmissionRejectedOnceCalibrated) {
  SolverService service;
  const platform::CostModel costs{platform::hera()};
  // Calibrate the ADMV* class with one completed job.
  const JobHandle calibrate = service.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(120, 25000.0),
        costs}});
  ASSERT_EQ(service.wait(calibrate).state, JobState::kSucceeded);
  ASSERT_GE(service.estimate(core::Algorithm::kADMVstar, 250).seconds, 0.0);
  // A bigger job with a microscopic deadline is now provably infeasible.
  const JobHandle doomed = service.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(250, 25000.0),
        costs},
       milliseconds(1)});
  const JobStatus status = service.poll(doomed);
  EXPECT_EQ(status.state, JobState::kRejected);
  EXPECT_EQ(status.reject_reason, RejectReason::kDeadlineInfeasible);
  // A negative deadline (expired before the submission landed) is
  // rejected even for an uncalibrated class.
  const JobHandle stale = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(50, 25000.0), costs},
       milliseconds(-5)});
  EXPECT_EQ(service.poll(stale).reject_reason,
            RejectReason::kDeadlineInfeasible);
  EXPECT_EQ(service.stats().rejected, 2u);
}

TEST(SolverService, RejectReasonsSurfaceOnHandles) {
  ServiceOptions options;
  options.admission.max_job_units = price_units(core::Algorithm::kADMV, 40);
  SolverService service(options);
  const platform::CostModel costs{platform::hera()};
  EXPECT_EQ(service
                .poll(service.submit({{core::Algorithm::kADMV,
                                       chain::make_uniform(120, 25000.0),
                                       costs}}))
                .reject_reason,
            RejectReason::kPerJobCap);
  EXPECT_EQ(service
                .poll(service.submit(
                    {{core::Algorithm::kADVstar, chain::TaskChain{}, costs}}))
                .reject_reason,
            RejectReason::kEmptyChain);
  EXPECT_EQ(service
                .poll(service.submit(
                    {{core::Algorithm::kADVstar,
                      chain::make_uniform(core::DpContext::kDefaultMaxN + 1,
                                          25000.0),
                      costs}}))
                .reject_reason,
            RejectReason::kChainTooLong);
  service.shutdown();
  EXPECT_EQ(service
                .poll(service.submit({{core::Algorithm::kADVstar,
                                       chain::make_uniform(20, 25000.0),
                                       costs}}))
                .reject_reason,
            RejectReason::kShutdown);
}

TEST(SolverService, ShutdownCancelsQueuedWorkAndRejectsNewSubmissions) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);
  const platform::CostModel costs{platform::hera()};
  const JobHandle blocker = service.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(300, 25000.0),
        costs}});
  const JobHandle queued = service.submit(
      {{core::Algorithm::kADVstar, chain::make_uniform(100, 25000.0),
        costs}});
  service.shutdown();
  const JobState blocker_state = service.poll(blocker).state;
  EXPECT_TRUE(blocker_state == JobState::kCancelled ||
              blocker_state == JobState::kSucceeded);
  EXPECT_EQ(service.poll(queued).state, JobState::kCancelled);
  EXPECT_EQ(service.submit({{core::Algorithm::kADVstar,
                             chain::make_uniform(20, 25000.0), costs}})
                .id(),
            3u);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(SolverServicePlanCache, StatsSnapshotReconcilesAndEpsilonFlowsThrough) {
  SolverService service;
  platform::Platform base = platform::hera();
  base.lambda_f *= 25.0;
  base.lambda_s *= 25.0;
  const core::BatchJob job{core::Algorithm::kADMVstar,
                           chain::make_uniform(14, 25000.0),
                           platform::CostModel{base}};
  const JobHandle first = service.submit({job});
  ASSERT_EQ(service.wait(first).state, JobState::kSucceeded);
  // Identical re-submission: exact hit, bitwise result.
  const JobHandle second = service.submit({job});
  const JobStatus hit = service.wait(second);
  ASSERT_EQ(hit.state, JobState::kSucceeded);
  EXPECT_EQ(hit.result.expected_makespan,
            service.poll(first).result.expected_makespan);
  EXPECT_EQ(hit.result.plan, service.poll(first).result.plan);

  // Drifted re-submission with a per-submission tolerance: epsilon-hit.
  platform::Platform drifted = base;
  drifted.lambda_s *= 1.01;
  core::BatchJob near = job;
  near.costs = platform::CostModel{drifted};
  SubmitOptions options;
  options.cache_epsilon = 0.05;
  const JobHandle third = service.submit({near, options});
  const JobStatus served = service.wait(third);
  ASSERT_EQ(served.state, JobState::kSucceeded);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache.lookups, 3u);
  EXPECT_EQ(stats.plan_cache.exact_hits, 1u);
  EXPECT_EQ(stats.plan_cache.epsilon_hits, 1u);
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.exact_hits + stats.plan_cache.epsilon_hits +
                stats.plan_cache.cert_rejections + stats.plan_cache.misses,
            stats.plan_cache.lookups);
  EXPECT_EQ(stats.solver.warm_bound_violations, 0u);

  // The served objective honors the tolerance against a fresh solve.
  core::BatchOptions cold_options;
  cold_options.enable_plan_cache = false;
  core::BatchSolver cold{cold_options};
  const core::OptimizationResult fresh = cold.solve_job(near);
  EXPECT_LE(served.result.expected_makespan,
            (1.0 + 0.05) * fresh.expected_makespan * (1.0 + 1e-12));
}

TEST(SolverServicePlanCache, ProbableHitsArePricedAtTheDiscount) {
  SolverService service;
  const core::BatchJob job{core::Algorithm::kADMVstar,
                           chain::make_uniform(60, 25000.0),
                           platform::CostModel{platform::hera()}};
  const JobHandle cold = service.submit({job});
  ASSERT_EQ(service.wait(cold).state, JobState::kSucceeded);
  const JobHandle warm = service.submit({job});
  ASSERT_EQ(service.wait(warm).state, JobState::kSucceeded);
  const double full_price = service.poll(cold).cost_units;
  const double discounted = service.poll(warm).cost_units;
  ASSERT_GT(full_price, 0.0);
  EXPECT_NEAR(discounted, kCacheHitUnitFactor * full_price,
              1e-12 * full_price);
}

TEST(SolverServicePlanCache, ProbableHitSkipsTheDeadlineFeasibilityScreen) {
  // Calibrate the ADMV class with a completed job, then submit one whose
  // deadline is half of what the screen accepts for a cold chain of its
  // size: rejected cold, but admitted (and served from cache) once the
  // plan cache holds its key.  The screen compares estimate * headroom
  // with the deadline, so its verdicts do not depend on the scale; a
  // large headroom makes the deadline seconds long however fast the
  // calibrating solve ran.
  ServiceOptions options;
  options.admission.deadline_headroom = 1000.0;
  SolverService service(options);
  const core::BatchJob slow{core::Algorithm::kADMV,
                            chain::make_uniform(60, 25000.0),
                            platform::CostModel{platform::atlas()}};
  const JobHandle calibrate = service.submit({slow});
  ASSERT_EQ(service.wait(calibrate).state, JobState::kSucceeded);

  // The screen rejects a deadline below estimate * deadline_headroom.
  // Half of that is still seconds, far more than an exact hit needs to
  // be dispatched and served.
  const double accepted_ms =
      service.estimate(core::Algorithm::kADMV, 61).seconds * 1e3 *
      options.admission.deadline_headroom;
  const milliseconds deadline(static_cast<long long>(accepted_ms / 2.0));
  ASSERT_GE(deadline, milliseconds(10));

  // A different (uncached) chain of the same class: the calibrated
  // estimate screens it out.
  const core::BatchJob cold{core::Algorithm::kADMV,
                            chain::make_uniform(61, 25000.0),
                            platform::CostModel{platform::atlas()}};
  const JobHandle infeasible =
      service.submit({cold, SubmitOptions{deadline}});
  const JobStatus rejected = service.poll(infeasible);
  ASSERT_EQ(rejected.state, JobState::kRejected);
  EXPECT_EQ(rejected.reject_reason, RejectReason::kDeadlineInfeasible);

  // The CACHED chain under the same deadline sails through: a hit costs
  // microseconds, so the screen would reject free work.
  const JobHandle cached = service.submit({slow, SubmitOptions{deadline}});
  const JobStatus status = service.wait(cached);
  EXPECT_EQ(status.state, JobState::kSucceeded);
  EXPECT_GE(service.stats().plan_cache.exact_hits, 1u);
}

}  // namespace
}  // namespace chainckpt::service
