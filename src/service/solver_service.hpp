// Async service layer over core::BatchSolver.
//
// BatchSolver's solve() is synchronous and batch-shaped: the caller
// blocks until every job finishes.  A long-lived serving process wants
// the opposite contract -- requests arrive one at a time, the caller gets
// a handle back immediately, and completion is observed by polling,
// blocking, or callback.  SolverService provides that shape:
//
//   * submit() -> JobHandle: prices the job through the admission
//     controller (service/admission.hpp), rejects over-cap or
//     over-capacity work, and enqueues the rest;
//   * a worker pool: `workers` dispatch threads, each looping on the
//     queue and solving one job at a time.  A solve calls
//     util::parallel_for like any other caller, so the process-wide
//     helper pool (util/parallel.hpp) runs its table builds and slabs on
//     every core the other dispatch threads leave idle.  Service jobs
//     never run on the helper pool itself: a parallel_for body may
//     wait() on a job (scenario::run_matrix does), which could deadlock
//     if the job needed that same pool to start;
//   * dispatch under budget and priority: a worker takes the
//     highest-priority queued job that fits the remaining admission
//     budget, FIFO within a class (an idle pool always takes the best
//     queued job, so one oversized job cannot wedge the queue);
//   * preemption: when a strictly higher class's deadline is at risk,
//     the dispatcher cooperatively displaces a lower-class running job
//     (via its CancelToken); the victim re-queues -- NOT a terminal
//     state -- and its next run resumes the solve checkpoint its
//     interrupted run committed (core/solve_checkpoint.hpp), so the
//     preempted work re-executes only unfinished slabs;
//   * poll()/wait()/completion callback over JobStatus snapshots;
//   * cancel() and per-job deadlines, threaded to the DPs' cooperative
//     checkpoints as a core::CancelToken (core/cancellation.hpp), with
//     deadline-infeasible submissions rejected up front once the class
//     is calibrated (service/admission.hpp);
//   * bounded memory: the embedded BatchSolver's one byte budget
//     (BatchOptions::cache_budget_bytes, 1 GiB by default) bounds its
//     coefficient tables, retained interruption checkpoints and memoized
//     plans together under one LRU order, and release_scratch() drops
//     all three at any time.
//
// Determinism: a job's result is bit-identical to a synchronous
// core::BatchSolver::solve() (and standalone core::optimize()) run of the
// same work -- scheduling order, worker count, queue pressure, eviction,
// preemption/resume, and cancellation of OTHER jobs change nothing about
// a job's plan or objective (tests/service/solver_service_test.cpp pins
// this at n up to 400; tests/service/scheduler_stress_test.cpp under
// mixed-priority chaos).
//
// Thread-safety: every public method is safe from any thread.  The
// operator's manual -- lifecycle, tuning, metrics export -- lives in
// docs/SERVER.md.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/batch_solver.hpp"
#include "service/admission.hpp"
#include "service/job.hpp"

namespace chainckpt::service {

struct ServiceOptions {
  /// Dispatch threads, i.e. jobs solved at once; 0 uses
  /// util::hardware_parallelism().  Each solve also draws on the
  /// process-wide helper pool -- see the pool note in the header comment.
  std::size_t workers = 0;
  /// Passed through to the embedded BatchSolver: max_n, the plan cache,
  /// and the one byte budget over tables, plans and the retained
  /// interruption checkpoints (the checkpoints are what make preempted
  /// jobs resume instead of restart).
  core::BatchOptions solver;
  /// Admission pricing, budget, and the deadline-feasibility screen
  /// (service/admission.hpp).
  AdmissionConfig admission;
  /// Preemption (always on) fires only when a queued job of a STRICTLY
  /// higher priority class carries a deadline the scheduler judges at
  /// risk and no capacity frees up by itself; the lowest-class running
  /// job is displaced, re-queued, and resumed later.  Decisions are made
  /// at submit, dispatch and job-completion events, and by the watchdog.
  /// Deadline-risk factor: a queued job's deadline is at risk when its
  /// remaining time is below
  ///   (calibrated_estimate + expected_worker_wait) * preemption_slack,
  /// where the expected wait is the smallest calibrated remaining
  /// runtime among the running jobs.  Anything uncalibrated (no
  /// completed job in the class yet) is treated as at-risk -- the
  /// scheduler cannot rule a miss out, so it protects the deadline.
  double preemption_slack = 1.5;
  /// Periodic deadline-risk watchdog.  The dispatcher historically
  /// re-evaluated preemption only at submit/dispatch/completion events,
  /// so a queued deadline could slide into the at-risk region during a
  /// long event-free stretch (every worker busy on long solves) and
  /// expire unprotected -- the stress battery caught exactly that.  The
  /// watchdog re-runs the same policy every interval so the at-risk
  /// crossing is observed within one tick.  Zero disables (restoring the
  /// event-only behavior; the regression test does this on purpose).
  std::chrono::milliseconds watchdog_interval{20};
  /// Priority aging: when positive, a queued job's effective class for
  /// DISPATCH ordering is raised one class per `aging_interval` waited
  /// (capped at kUrgent), so sustained high-class storms cannot starve
  /// kBatch forever -- waiting becomes rank.  Preemption victim/contender
  /// selection still uses the submitted class (aging earns a turn, not
  /// the right to displace running work).  Zero (the default) keeps
  /// strict classes: several batteries assert zero inversions under
  /// strict priority, so aging -- which trades inversions for bounded
  /// starvation -- is opt-in.
  std::chrono::milliseconds aging_interval{0};
};

/// Per-tenant slice of the terminal counters: every job outcome is
/// counted once, under its SubmitOptions::tenant, and stats() sums the
/// slices into the global fields, so
///   sum over tenants == the global counter
/// holds for each field in every snapshot by construction -- the
/// reconciliation invariant the multi-tenant batteries
/// (tests/net/tenant_stress_test.cpp) assert.
struct TenantCounters {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t preempted = 0;
};

/// Counters + gauges, snapshotted by stats().  The embedded solver's
/// BatchStats (table builds/reuses/evictions, scan counters, the
/// budgeted-bytes gauge) ride along so one call exports everything
/// docs/SERVER.md lists as metrics.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  /// Runs displaced by the preemption policy (kRunning -> kQueued
  /// transitions; not terminal, so disjoint from the counters above).
  std::uint64_t preempted = 0;
  /// Instantaneous gauges.
  std::size_t queued = 0;
  std::size_t running = 0;
  double inflight_units = 0.0;
  double queued_units = 0.0;
  core::BatchStats solver;
  /// Snapshot of the solver's plan cache (hit/miss/eviction counters;
  /// see core/plan_cache.hpp).  lookups == exact_hits + epsilon_hits +
  /// cert_rejections + misses holds in every snapshot.
  core::PlanCacheStats plan_cache;
  /// Per-tenant attribution of the terminal counters above (ordered map
  /// for deterministic export).  Only tenants that submitted at least one
  /// job appear; each field sums to its global counterpart.
  std::map<std::uint64_t, TenantCounters> tenants;
};

class SolverService {
 public:
  /// Invoked exactly once per job on reaching a terminal state, with the
  /// same snapshot poll() would return.  Runs on the worker that finished
  /// the job (or the submitter's thread for rejections), outside the
  /// service lock -- it may call back into the service, but must not
  /// block for long (it delays that worker's next dispatch) and must not
  /// throw (an escaping exception would corrupt the worker's accounting,
  /// so the service swallows it).
  using CompletionCallback = std::function<void(const JobStatus&)>;

  explicit SolverService(ServiceOptions options = {});
  /// Shuts down: cancels queued and running jobs, joins the pool.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Prices, admits, and enqueues.  Never blocks on solving; an
  /// inadmissible request returns an already-terminal kRejected handle
  /// (JobStatus::error says why) rather than throwing.
  JobHandle submit(JobRequest request);

  /// Non-blocking state snapshot.
  JobStatus poll(const JobHandle& handle) const;

  /// Blocks until the job reaches a terminal state; returns the final
  /// snapshot.
  JobStatus wait(const JobHandle& handle);

  /// Cancels a queued job directly or requests cancellation of a running
  /// one (honored at the DP's next checkpoint).  Returns false when the
  /// job is already terminal or the handle is empty.
  bool cancel(const JobHandle& handle);

  /// Installs the completion callback.  Set it before the first submit;
  /// jobs finishing before installation do not fire it retroactively.
  void on_completion(CompletionCallback callback);

  /// Blocks until the queue is empty and every worker is idle.
  void drain();

  /// Stops accepting work, cancels queued and running jobs, and joins
  /// the worker pool.  Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;

  /// Calibrated cost preview for a prospective job (admission pricing +
  /// expected seconds once the class has completed work).
  AdmissionController::Estimate estimate(core::Algorithm algorithm,
                                         std::size_t n) const;

  /// The longest chain submit() admits (ServiceOptions::solver.max_n);
  /// longer chains are rejected with kChainTooLong.
  std::size_t max_n() const noexcept;

  /// Drops the embedded solver's stores (core::BatchSolver::
  /// release_scratch) and returns the bytes freed; safe while jobs run.
  std::size_t release_scratch();

 private:
  void worker_loop();
  /// Timer thread body: re-evaluates the preemption policy every
  /// watchdog_interval so deadline risk is caught between events.
  void watchdog_loop();
  /// Pops the highest-priority queued job fitting the admission budget,
  /// FIFO within a class (or the best queued job regardless of price
  /// when the pool is idle); nullptr when nothing is runnable.  When
  /// aging is enabled the ranking uses wait-boosted effective classes
  /// against one shared clock read.  Requires mutex_.
  std::shared_ptr<detail::JobRecord> pop_runnable_locked();
  /// Preemption policy: if a queued strictly-higher-class job's deadline
  /// is at risk and displacing a running lower-class job would let it
  /// start, fire the victim's preempt flag.  Requires mutex_.
  void maybe_preempt_locked();
  /// Returns a preempted job to the queue (kRunning -> kQueued) for a
  /// later resumed run; returns false -- leaving the record untouched for
  /// a terminal completion -- when a cancel, an expired deadline, or
  /// shutdown raced the preemption.
  bool requeue_preempted(const std::shared_ptr<detail::JobRecord>& record);
  /// Terminal transition + bookkeeping + callback/calibration dispatch.
  void complete(const std::shared_ptr<detail::JobRecord>& record,
                JobState state, core::OptimizationResult* result,
                std::string error, double seconds);
  /// Snaps the priced gauges to exactly zero when their containers are
  /// empty (floating-point summation residue).  Requires mutex_.
  void settle_gauges_locked();
  JobStatus snapshot_locked(const detail::JobRecord& record) const;

  ServiceOptions options_;
  core::BatchSolver solver_;
  AdmissionController admission_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;  ///< workers: queue or stop flag
  std::condition_variable job_done_;    ///< waiters: terminal transitions
  std::deque<std::shared_ptr<detail::JobRecord>> queue_;
  std::vector<std::shared_ptr<detail::JobRecord>> running_jobs_;
  CompletionCallback callback_;
  double inflight_units_ = 0.0;
  double queued_units_ = 0.0;
  JobId next_id_ = 0;
  /// One service-wide event order covering queue entries and dispatches;
  /// the source of JobStatus::submit_seq/start_seq.
  std::uint64_t event_seq_ = 0;
  bool stopping_ = false;
  /// The terminal counters, one slice per tenant (see
  /// ServiceStats::tenants); stats() sums them into the global fields and
  /// assembles the gauges and solver snapshot fresh.
  std::map<std::uint64_t, TenantCounters> tenant_counters_;

  std::size_t workers_ = 1;
  std::vector<std::thread> dispatch_;  ///< workers_ threads in worker_loop()
  std::condition_variable watchdog_wake_;  ///< shutdown: end the tick wait
  std::thread watchdog_;
};

}  // namespace chainckpt::service
