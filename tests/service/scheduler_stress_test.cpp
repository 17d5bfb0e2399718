// Multi-threaded stress/chaos battery for the deadline-aware priority
// scheduler: hundreds of mixed-priority jobs with randomized deadlines
// and mid-flight cancellations, at worker-pool widths {1, 4, hardware}.
// The invariants:
//
//   (a) no priority inversion past the preemption bound -- with an
//       unlimited admission budget the dispatcher is exact: no job may
//       START while a strictly higher-class job sits queued, so the
//       soak asserts ZERO inversions from the (submit_seq, start_seq)
//       event trace (budget-induced inversions are exercised separately
//       without the ordering assertion, since first-fit deliberately
//       lets a small low-class job run when the big high-class one does
//       not fit);
//   (b) every completed result is bitwise-equal to a synchronous
//       BatchSolver solve of the same workload, preempted-and-resumed
//       jobs included;
//   (c) the terminal counters reconcile exactly with the observed
//       outcomes, the load gauges return to zero, and the ASan+UBSan CI
//       job holds the zero-leak bar over the whole battery.
//
// Minutes of chaos, not milliseconds, so the battery is env-gated like
// the slow oracle suites and carries the `stress` ctest label:
//
//   CHAINCKPT_STRESS_TESTS=1 ctest --test-dir build -L stress
#include "service/solver_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "core/cancellation.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "slab_gate.hpp"
#include "stress_harness.hpp"
#include "util/rng.hpp"

namespace chainckpt::service {
namespace {

using std::chrono::milliseconds;
using stress::SubmittedJob;
using stress::count_priority_inversions;
using stress::make_shapes;
using stress::solve_expected;

/// One soak: `jobs` mixed-priority submissions from four submitter
/// threads racing a canceller, on a pool of `workers`.
void run_soak(std::size_t workers, std::size_t jobs) {
  const auto shapes = make_shapes();
  const auto expected = solve_expected(shapes);

  ServiceOptions options;
  options.workers = workers;
  // Unlimited budget: every queued job always fits, which makes the
  // priority dispatcher exact and invariant (a) assertable as zero
  // inversions.
  options.admission.budget_units = 0.0;
  options.solver.cache_budget_bytes = 8u << 20;  // eviction chaos rides along
  SolverService service(options);

  std::mutex submitted_mutex;
  std::vector<SubmittedJob> submitted;
  submitted.reserve(jobs);
  std::atomic<bool> done_submitting{false};

  const std::size_t submitters = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(0x57E55ull * (t + 1));
      const std::size_t count = jobs / submitters;
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t shape = rng() % shapes.size();
        SubmitOptions opts;
        opts.priority = static_cast<Priority>(rng() % 4);
        const std::uint64_t roll = rng() % 10;
        if (roll < 2) {
          opts.deadline = milliseconds(1 + rng() % 20);  // tight: may expire
        } else if (roll < 4) {
          opts.deadline = milliseconds(5000 + rng() % 5000);  // generous
        }
        JobHandle handle = service.submit({shapes[shape], opts});
        {
          const std::lock_guard<std::mutex> lock(submitted_mutex);
          submitted.push_back({std::move(handle), shape});
        }
        // Pace the stream so submissions overlap the drain: higher-class
        // deadline jobs must land while lower-class work is mid-solve,
        // or the preemption path would never be exercised.
        if (rng() % 2 == 0) std::this_thread::sleep_for(milliseconds(1));
      }
    });
  }
  // The canceller: aims at random in-flight handles until the service
  // drains, hitting queued, running, and already-terminal jobs alike.
  threads.emplace_back([&] {
    util::Xoshiro256 rng(0xCA11ull);
    for (;;) {
      const bool submitting = !done_submitting.load(std::memory_order_relaxed);
      JobHandle target;
      {
        const std::lock_guard<std::mutex> lock(submitted_mutex);
        if (!submitted.empty()) {
          target = submitted[rng() % submitted.size()].handle;
        }
      }
      if (target.valid() && rng() % 4 == 0) service.cancel(target);
      if (!submitting) {
        const ServiceStats snapshot = service.stats();
        if (snapshot.queued == 0 && snapshot.running == 0) break;
      }
      std::this_thread::sleep_for(milliseconds(1));
    }
  });
  for (std::size_t t = 0; t < submitters; ++t) threads[t].join();
  done_submitting.store(true, std::memory_order_relaxed);
  threads.back().join();

  // Every job must reach exactly one terminal state -- no hangs, no
  // limbo.  wait() blocks, so the soak itself is the liveness assert.
  std::vector<JobStatus> outcomes;
  outcomes.reserve(submitted.size());
  for (const auto& job : submitted) outcomes.push_back(service.wait(job.handle));
  service.drain();

  // (b) bitwise equality for every success, resumed-after-preemption
  // jobs included.
  std::uint64_t succeeded = 0, cancelled = 0, expired = 0, rejected = 0;
  std::uint64_t preemptions_seen = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const JobStatus& status = outcomes[i];
    const core::OptimizationResult& want = expected[submitted[i].shape];
    switch (status.state) {
      case JobState::kSucceeded:
        ++succeeded;
        EXPECT_EQ(status.result.expected_makespan, want.expected_makespan)
            << "job " << status.id;
        EXPECT_EQ(status.result.plan, want.plan) << "job " << status.id;
        break;
      case JobState::kCancelled:
        ++cancelled;
        break;
      case JobState::kExpired:
        ++expired;
        break;
      case JobState::kRejected:
        ++rejected;
        EXPECT_NE(status.reject_reason, RejectReason::kNone);
        break;
      default:
        ADD_FAILURE() << "non-terminal state after wait(): "
                      << to_string(status.state);
    }
    // Every start ends in exactly one of: a preemption (another start
    // follows) or the terminal transition.  A job cancelled/expired while
    // requeued after a preemption therefore shows starts == preemptions.
    EXPECT_GE(status.starts, status.preemptions) << "job " << status.id;
    EXPECT_LE(status.starts, status.preemptions + 1) << "job " << status.id;
    preemptions_seen += status.preemptions;
  }

  // (a) zero priority inversions: with the unlimited budget the
  // dispatcher is exact, so the shared event-trace counter
  // (stress_harness.hpp documents the rule) must read zero.
  EXPECT_EQ(count_priority_inversions(outcomes), 0u);

  // (c) counters reconcile with the observed outcomes, gauges at zero.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, submitted.size());
  EXPECT_EQ(stats.succeeded, succeeded);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.preempted, preemptions_seen);
  EXPECT_EQ(stats.submitted,
            stats.succeeded + stats.cancelled + stats.expired +
                stats.rejected + stats.failed);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.inflight_units, 0.0);
  EXPECT_EQ(stats.queued_units, 0.0);
  // Interruption bookkeeping: every retained checkpoint was either
  // resumed or is still parked; resumes never exceed saves.
  EXPECT_LE(stats.solver.checkpoints_resumed, stats.solver.checkpoints_saved);

  // One summary line per soak so the CI log shows the chaos actually
  // exercised every path (preemptions, resumes, expiries, rejections).
  std::cout << "[soak] workers=" << workers << " jobs=" << submitted.size()
            << " ok=" << succeeded << " cancelled=" << cancelled
            << " expired=" << expired << " rejected=" << rejected
            << " preempted=" << stats.preempted
            << " interrupted=" << stats.solver.jobs_interrupted
            << " ckpt_saved=" << stats.solver.checkpoints_saved
            << " ckpt_resumed=" << stats.solver.checkpoints_resumed
            << " slabs_skipped=" << stats.solver.checkpoint_slabs_skipped
            << std::endl;

  service.shutdown();
  EXPECT_GE(service.release_scratch(), 0u);
}

TEST(SchedulerStress, SoakSingleWorker) {
  CHAINCKPT_REQUIRE_STRESS();
  run_soak(1, 160);
}

TEST(SchedulerStress, SoakFourWorkers) {
  CHAINCKPT_REQUIRE_STRESS();
  run_soak(4, 240);
}

TEST(SchedulerStress, SoakHardwareWorkers) {
  CHAINCKPT_REQUIRE_STRESS();
  run_soak(0, 240);  // 0 = hardware_parallelism
}

/// Targeted preemption storm: the random soak rarely preempts (the
/// priority dispatcher keeps the highest class running, which is the
/// point), so this scenario manufactures the inversion-risk moment --
/// every worker pinned by a batch-class ADMV solve the gate holds, then
/// urgent jobs whose deadlines are already at risk when they are queued.
/// Asserts the preemption fired AND that every displaced batch job still
/// finishes with a bitwise-exact result.
void run_preemption_storm(std::size_t workers) {
  const platform::CostModel costs{platform::hera()};
  const core::BatchJob batch_work{core::Algorithm::kADMV,
                                  chain::make_uniform(40, 25000.0), costs};
  // Large enough that preemption_slack times its estimate spans whole
  // milliseconds: the urgent deadline below is one of them.
  const core::BatchJob urgent_work{core::Algorithm::kADVstar,
                                   chain::make_uniform(400, 25000.0), costs};
  core::BatchSolver reference;
  const auto batch_expected = reference.solve_job(batch_work);
  const auto urgent_expected = reference.solve_job(urgent_work);

  ServiceOptions options;
  options.workers = workers;
  // The storm is manufactured from resubmissions of one identical job;
  // the plan cache would serve every repeat as an instant exact hit and
  // no worker would ever be pinned.  This probe tests preemption, not
  // caching.
  options.solver.enable_plan_cache = false;
  SolverService service(options);
  // Calibrate both classes so the at-risk math runs on real estimates.
  ASSERT_EQ(service.wait(service.submit({batch_work})).state,
            JobState::kSucceeded);
  ASSERT_EQ(service.wait(service.submit({urgent_work})).state,
            JobState::kSucceeded);

  // Pin every worker with a batch-class solve the gate holds after its
  // first slab (plus a queued reserve so a freed worker immediately picks
  // up batch again).
  SlabGate gate(1);
  std::vector<JobHandle> batch_handles;
  for (std::size_t i = 0; i < 3 * workers; ++i) {
    batch_handles.push_back(
        service.submit({batch_work, {Priority::kBatch}}));
  }
  ASSERT_TRUE(gate.wait_parked(workers));
  ASSERT_EQ(service.stats().running, workers);

  // Urgent jobs whose deadline -- the largest whole millisecond count
  // below preemption_slack times their own estimate -- is at risk however
  // soon a worker frees up, so each submit displaces a running batch job
  // (until every one is marked).  The gate then lets the marked solves
  // reach their next poll and yield.  (Some urgent jobs may still expire
  // -- the assert is on the preemptions and on every job reaching a sane
  // terminal state.)
  const double estimate =
      service.estimate(core::Algorithm::kADVstar, 400).seconds;
  ASSERT_GT(estimate, 0.0);
  const auto deadline = milliseconds(
      static_cast<std::int64_t>(
          std::ceil(options.preemption_slack * estimate * 1000.0)) -
      1);
  ASSERT_GE(deadline.count(), 1);
  std::vector<JobHandle> urgent_handles;
  for (std::size_t i = 0; i < 2 * workers; ++i) {
    urgent_handles.push_back(service.submit(
        {urgent_work, {Priority::kUrgent, deadline}}));
  }
  gate.release();

  for (const auto& handle : urgent_handles) {
    const JobStatus status = service.wait(handle);
    ASSERT_TRUE(status.state == JobState::kSucceeded ||
                status.state == JobState::kExpired)
        << to_string(status.state);
    if (status.state == JobState::kSucceeded) {
      EXPECT_EQ(status.result.expected_makespan,
                urgent_expected.expected_makespan);
      EXPECT_EQ(status.result.plan, urgent_expected.plan);
    }
  }
  std::uint64_t victim_preemptions = 0;
  for (const auto& handle : batch_handles) {
    const JobStatus status = service.wait(handle);
    ASSERT_EQ(status.state, JobState::kSucceeded);
    EXPECT_EQ(status.result.expected_makespan,
              batch_expected.expected_makespan);
    EXPECT_EQ(status.result.plan, batch_expected.plan);
    victim_preemptions += status.preemptions;
  }
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.preempted, 1u);
  EXPECT_EQ(stats.preempted, victim_preemptions);
  std::cout << "[storm] workers=" << workers
            << " preempted=" << stats.preempted
            << " ckpt_saved=" << stats.solver.checkpoints_saved
            << " ckpt_resumed=" << stats.solver.checkpoints_resumed
            << std::endl;
}

TEST(SchedulerStress, PreemptionStormSingleWorker) {
  CHAINCKPT_REQUIRE_STRESS();
  run_preemption_storm(1);
}

TEST(SchedulerStress, PreemptionStormFourWorkers) {
  CHAINCKPT_REQUIRE_STRESS();
  run_preemption_storm(4);
}

/// Watchdog regression: manufactures a deadline-risk crossing in an
/// EVENT-FREE window.  With slack < 1 and calibrated estimates, an
/// urgent deadline can be safe at submit (remaining >= slack * (own
/// estimate + batch wait)) yet drift into the at-risk region later:
/// remaining decays at rate 1 while the threshold decays at rate slack.
/// The gate holds the batch solve, so between the submit and the gate's
/// release there is NO scheduler event: the event-only dispatcher
/// provably misses the crossing and the urgent job expires in queue; the
/// periodic watchdog tick catches it and displaces the batch job in time.
/// The batch class is calibrated on a solve the gate also holds, for one
/// second, so its estimate -- and every duration derived from it below --
/// spans dozens of watchdog ticks however fast this machine solves.
void run_watchdog_probe(milliseconds watchdog, std::uint64_t* preempted,
                        JobState* urgent_state, JobState* batch_state) {
  using Clock = core::CancelToken::Clock;
  using Seconds = std::chrono::duration<double>;
  const platform::CostModel costs{platform::hera()};
  // Calibration work and probe work differ (weights 25000 vs 26000) so
  // the probe solves rebuild their tables: the urgent estimate then
  // reflects a cold solve, which is what the probe runs.
  const core::BatchJob batch_cal{core::Algorithm::kADMV,
                                 chain::make_uniform(72, 25000.0), costs};
  const core::BatchJob urgent_cal{core::Algorithm::kADVstar,
                                  chain::make_uniform(150, 25000.0), costs};
  const core::BatchJob batch_probe{core::Algorithm::kADMV,
                                   chain::make_uniform(72, 26000.0), costs};
  const core::BatchJob urgent_probe{core::Algorithm::kADVstar,
                                    chain::make_uniform(150, 26000.0), costs};
  const milliseconds hold(1000);

  ServiceOptions options;
  options.workers = 1;
  options.admission.budget_units = 0.0;  // unlimited
  options.preemption_slack = 0.5;
  options.watchdog_interval = watchdog;
  SolverService service(options);

  // Calibrate both algorithm classes: the at-risk math must run on real
  // estimates, or the uncalibrated-is-at-risk rule preempts at submit
  // and the event-free window never exists.
  ASSERT_EQ(service.wait(service.submit({urgent_cal})).state,
            JobState::kSucceeded);
  {
    SlabGate gate(1);
    const JobHandle cal = service.submit({batch_cal});
    ASSERT_TRUE(gate.wait_parked(1));
    std::this_thread::sleep_for(hold);
    gate.release();
    ASSERT_EQ(service.wait(cal).state, JobState::kSucceeded);
  }
  const double est_b = service.estimate(core::Algorithm::kADMV, 72).seconds;
  const double est_u =
      service.estimate(core::Algorithm::kADVstar, 150).seconds;
  ASSERT_GE(est_b, Seconds(hold).count());
  ASSERT_GE(est_u, 0.0);

  // Pin the single worker with the batch probe, held at the gate.
  SlabGate gate(1);
  const auto batch_submitted = Clock::now();
  JobHandle batch = service.submit({batch_probe, {Priority::kBatch}});
  ASSERT_TRUE(gate.wait_parked(1));

  // Deadline chosen between the submit-time threshold slack*(est_u +
  // est_b) and the batch estimate est_b: safe now, at risk once
  //   elapsed > (urgent submit offset + 0.2 est_b) / (1 - slack)
  // into the batch solve (about 40% of est_b), expired before the batch
  // estimate runs out.  Only the watchdog looks in between.
  const double slack = options.preemption_slack;
  const double deadline_s = slack * (est_u + est_b) + 0.2 * est_b;
  ASSERT_LT(deadline_s, est_b);
  const milliseconds deadline(static_cast<std::int64_t>(deadline_s * 1000.0));
  const auto urgent_submitted = Clock::now();
  JobHandle urgent =
      service.submit({urgent_probe, {Priority::kUrgent, deadline}});
  const auto queued = Clock::now();
  // The crossing at the latest (the batch started no earlier than its
  // submit, the deadline counts from no later than `queued`), and the
  // expiry at the earliest.
  const auto at_risk_by =
      batch_submitted +
      std::chrono::duration_cast<Clock::duration>(
          (Seconds(queued - batch_submitted) + Seconds(0.2 * est_b)) /
          (1.0 - slack));
  const auto expires_from = urgent_submitted + deadline;
  if (watchdog.count() > 0) {
    // Release halfway between the two: the watchdog has had several ticks
    // to mark the batch job, and the urgent job has as long again to run.
    ASSERT_GE(expires_from - at_risk_by, 6 * watchdog);
    std::this_thread::sleep_until(at_risk_by +
                                  (expires_from - at_risk_by) / 2);
  } else {
    std::this_thread::sleep_until(queued + deadline + milliseconds(1));
  }
  gate.release();

  *urgent_state = service.wait(urgent).state;
  const JobStatus batch_status = service.wait(batch);
  *batch_state = batch_status.state;
  *preempted = service.stats().preempted;
  service.shutdown();
}

TEST(SchedulerStress, WatchdogCatchesEventFreeDeadlineRisk) {
  CHAINCKPT_REQUIRE_STRESS();
  std::uint64_t preempted = 0;
  JobState urgent_state = JobState::kQueued;
  JobState batch_state = JobState::kQueued;
  run_watchdog_probe(milliseconds(20), &preempted, &urgent_state,
                     &batch_state);
  // The tick observed the crossing: the batch job was displaced, the
  // urgent job made its deadline, and the batch job still finished.
  EXPECT_GE(preempted, 1u);
  EXPECT_EQ(urgent_state, JobState::kSucceeded);
  EXPECT_EQ(batch_state, JobState::kSucceeded);
  std::cout << "[watchdog] preempted=" << preempted
            << " urgent=" << to_string(urgent_state) << std::endl;
}

TEST(SchedulerStress, EventOnlyDispatcherMissesEventFreeDeadlineRisk) {
  CHAINCKPT_REQUIRE_STRESS();
  // The regression baseline: watchdog disabled restores the event-only
  // dispatcher, and the exact same scenario strands the urgent job --
  // nothing re-evaluates deadline risk between its submit and the batch
  // solve's completion, which lands after the deadline.  This arm
  // documents the bug the watchdog fixes; if it ever starts preempting,
  // an event was added to the window and the watchdog arm should be
  // re-derived.
  std::uint64_t preempted = 0;
  JobState urgent_state = JobState::kQueued;
  JobState batch_state = JobState::kQueued;
  run_watchdog_probe(milliseconds(0), &preempted, &urgent_state,
                     &batch_state);
  EXPECT_EQ(preempted, 0u);
  EXPECT_EQ(urgent_state, JobState::kExpired);
  EXPECT_EQ(batch_state, JobState::kSucceeded);
}

/// Bounded-starvation probe: one worker, a kUrgent storm and one kBatch
/// job, all queued while the gate holds the storm's first job on the
/// worker.  Returns how many storm jobs STARTED before the batch job
/// (start_seq in the service-wide event order).  Under strict priority
/// every one of them does: the urgent backlog outranks the batch job
/// until it drains.  With aging, the gate stays closed for three
/// intervals, so the batch job's effective class has reached kUrgent
/// when the worker frees up, and FIFO-by-submit_seq within the class puts
/// it ahead of every storm job submitted after it.  No job carries a
/// deadline, so preemption never fires: dispatch order alone decides.
constexpr std::size_t kStormJobs = 60;

std::size_t run_aging_probe(milliseconds aging_interval) {
  const platform::CostModel costs{platform::hera()};
  const core::BatchJob work{core::Algorithm::kADMV,
                            chain::make_uniform(40, 25000.0), costs};

  ServiceOptions options;
  options.workers = 1;
  options.admission.budget_units = 0.0;
  options.aging_interval = aging_interval;
  // The storm resubmits one identical job; with the plan cache on,
  // every repeat exact-hits in microseconds and the backlog the probe
  // depends on never forms.
  options.solver.enable_plan_cache = false;
  SolverService service(options);

  SlabGate gate(1);
  const JobHandle first = service.submit({work, {Priority::kUrgent}});
  EXPECT_TRUE(gate.wait_parked(1));
  const JobHandle batch = service.submit({work, {Priority::kBatch}});
  const auto batch_queued = core::CancelToken::Clock::now();
  std::vector<JobHandle> storm;
  for (std::size_t i = 0; i < kStormJobs; ++i) {
    storm.push_back(service.submit({work, {Priority::kUrgent}}));
  }
  // Three intervals raise kBatch to kUrgent (no wait without aging).
  std::this_thread::sleep_until(batch_queued + 3 * aging_interval);
  gate.release();

  EXPECT_EQ(service.wait(first).state, JobState::kSucceeded);
  const JobStatus batch_status = service.wait(batch);
  EXPECT_EQ(batch_status.state, JobState::kSucceeded);
  std::size_t started_before_batch = 0;
  for (const auto& handle : storm) {
    const JobStatus status = service.wait(handle);
    EXPECT_EQ(status.state, JobState::kSucceeded);
    if (status.start_seq < batch_status.start_seq) ++started_before_batch;
  }
  service.shutdown();
  return started_before_batch;
}

TEST(SchedulerStress, AgingBoundsBatchStarvationUnderUrgentStorm) {
  CHAINCKPT_REQUIRE_STRESS();
  // With aging at 25ms/class the batch job reaches kUrgent rank after
  // three intervals in the queue and dispatches ahead of the whole
  // storm: bounded starvation.
  EXPECT_EQ(run_aging_probe(milliseconds(25)), 0u);
}

TEST(SchedulerStress, StrictPriorityStarvesBatchUnderUrgentStorm) {
  CHAINCKPT_REQUIRE_STRESS();
  // The contrast arm: aging disabled (the default) preserves strict
  // classes, and the same storm starves the batch job until it ends --
  // which is exactly why aging_interval stays opt-in (other batteries
  // assert zero inversions under strict priority).
  EXPECT_EQ(run_aging_probe(milliseconds(0)), kStormJobs);
}

TEST(SchedulerStress, BudgetedChaosDrainsEverything) {
  CHAINCKPT_REQUIRE_STRESS();
  // A tight priced budget plus mixed priorities: inversions are now
  // legitimate (first-fit may start a small low-class job when the big
  // high-class one does not fit), so this scenario asserts only
  // completion, bitwise results, and counter reconciliation.
  const auto shapes = make_shapes();
  const auto expected = solve_expected(shapes);
  ServiceOptions options;
  options.workers = 4;
  options.admission.budget_units =
      price_units(core::Algorithm::kADMVstar, 64) * 1.5;
  SolverService service(options);
  util::Xoshiro256 rng(0xB7D6ull);
  std::vector<SubmittedJob> submitted;
  for (std::size_t i = 0; i < 120; ++i) {
    const std::size_t shape = rng() % shapes.size();
    SubmitOptions opts;
    opts.priority = static_cast<Priority>(rng() % 4);
    if (rng() % 3 == 0) opts.deadline = milliseconds(4000 + rng() % 4000);
    submitted.push_back({service.submit({shapes[shape], opts}), shape});
  }
  std::uint64_t succeeded = 0;
  for (const auto& job : submitted) {
    const JobStatus status = service.wait(job.handle);
    ASSERT_TRUE(is_terminal(status.state));
    if (status.state == JobState::kSucceeded) {
      ++succeeded;
      const core::OptimizationResult& want = expected[job.shape];
      EXPECT_EQ(status.result.expected_makespan, want.expected_makespan);
      EXPECT_EQ(status.result.plan, want.plan);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.succeeded, succeeded);
  EXPECT_GT(succeeded, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.inflight_units, 0.0);
}

}  // namespace
}  // namespace chainckpt::service
