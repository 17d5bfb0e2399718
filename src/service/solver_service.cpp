#include "service/solver_service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "util/parallel.hpp"

namespace chainckpt::service {

namespace detail {

/// Shared record behind a JobHandle.  `work`, `options`, `cost_units`,
/// and `id` are immutable after submit; `token` is internally
/// synchronized; the mutable tail (state/result/error and the scheduling
/// trace) is guarded by the service mutex.
struct JobRecord {
  explicit JobRecord(core::BatchJob job) : work(std::move(job)) {}

  JobId id = 0;
  core::BatchJob work;
  SubmitOptions options;
  double cost_units = 0.0;
  core::CancelToken token;
  /// Absolute deadline (zero time_point = none), for the preemption
  /// policy's remaining-time reads; the token holds the same instant for
  /// the solver side.
  core::CancelToken::Clock::time_point deadline_at{};

  JobState state = JobState::kQueued;
  RejectReason reject_reason = RejectReason::kNone;
  std::uint64_t submit_seq = 0;
  std::uint64_t start_seq = 0;
  /// Wall-clock instant of the most recent queue entry (submit or
  /// requeue-after-preemption); priority aging boosts from it.
  core::CancelToken::Clock::time_point queued_at{};
  /// Wall-clock instant of the most recent dispatch; the preemption
  /// policy's estimate of a running job's remaining time reads it.
  core::CancelToken::Clock::time_point started_at{};
  std::uint32_t starts = 0;
  std::uint32_t preemptions = 0;
  /// A preempt was requested for the current run and has not yet
  /// unwound; keeps the policy from stacking preempts on one victim.
  bool preempt_pending = false;
  core::OptimizationResult result;
  std::string error;
};

}  // namespace detail

JobId JobHandle::id() const noexcept {
  return record_ != nullptr ? record_->id : 0;
}

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kSucceeded:
      return "succeeded";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kExpired:
      return "expired";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

bool is_terminal(JobState state) noexcept {
  return state != JobState::kQueued && state != JobState::kRunning;
}

const char* to_string(Priority priority) noexcept {
  switch (priority) {
    case Priority::kBatch:
      return "batch";
    case Priority::kNormal:
      return "normal";
    case Priority::kInteractive:
      return "interactive";
    case Priority::kUrgent:
      return "urgent";
  }
  return "unknown";
}

namespace {

/// What poll()/wait() report for an empty handle: terminal, so the
/// natural poll-until-terminal loop cannot spin on a job that does not
/// exist.
JobStatus empty_handle_status() {
  JobStatus status;
  status.state = JobState::kRejected;
  status.reject_reason = RejectReason::kEmptyChain;
  status.error = "empty job handle (no job was submitted)";
  return status;
}

/// Dispatch order within the queue: higher priority class first, FIFO
/// (by service event order) within a class.
bool ranks_before(const detail::JobRecord& a,
                  const detail::JobRecord& b) noexcept {
  if (a.options.priority != b.options.priority) {
    return a.options.priority > b.options.priority;
  }
  return a.submit_seq < b.submit_seq;
}

/// Callbacks run outside the service lock on whichever thread finished
/// the job; an exception escaping one would either double-complete the
/// job (worker catch blocks) or terminate the process (pool unwinding),
/// so the contract is: callbacks must not throw, and one that does is
/// swallowed here.
void invoke_callback(const SolverService::CompletionCallback& callback,
                     const JobStatus& status) noexcept {
  if (!callback) return;
  try {
    callback(status);
  } catch (...) {
  }
}

}  // namespace

SolverService::SolverService(ServiceOptions options)
    : options_(options),
      solver_(options.solver),
      admission_(options.admission) {
  workers_ = options_.workers != 0
                 ? options_.workers
                 : static_cast<std::size_t>(
                       std::max(1, util::hardware_parallelism()));
  try {
    dispatch_.reserve(workers_);
    for (std::size_t i = 0; i < workers_; ++i) {
      dispatch_.emplace_back([this] { worker_loop(); });
    }
    if (options_.enable_preemption &&
        options_.watchdog_interval.count() > 0) {
      watchdog_ = std::thread([this] { watchdog_loop(); });
    }
  } catch (...) {
    shutdown();  // joins the threads that did start
    throw;
  }
}

SolverService::~SolverService() { shutdown(); }

JobHandle SolverService::submit(JobRequest request) {
  auto record = std::make_shared<detail::JobRecord>(std::move(request.work));
  record->options = request.options;
  // Per-submission plan-cache tolerance rides on the BatchJob; negative
  // defers to the solver's BatchOptions::plan_cache_epsilon.
  record->work.cache_epsilon = request.options.cache_epsilon;
  const std::size_t n = record->work.chain.size();
  // Probe the plan cache before taking the service lock: the probe hashes
  // the chain and cost model (O(n)) and takes only the cache's own lock.
  const bool probable_cache_hit =
      solver_.probable_plan_cache_hit(record->work);

  CompletionCallback callback;
  JobStatus rejected_status;
  bool rejected = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    record->id = ++next_id_;
    ++counters_.submitted;
    TenantCounters& tenant = tenant_counters_[record->options.tenant];
    ++tenant.submitted;
    const char* reason = nullptr;
    if (stopping_) {
      reason = "service is shut down";
      record->reject_reason = RejectReason::kShutdown;
    } else if (n == 0) {
      reason = "job needs a non-empty chain";
      record->reject_reason = RejectReason::kEmptyChain;
    } else if (n > options_.solver.max_n) {
      reason = "chain longer than the service's max_n";
      record->reject_reason = RejectReason::kChainTooLong;
    } else {
      const AdmissionVerdict verdict =
          admission_.assess(record->work.algorithm, n, queue_.size(),
                            inflight_units_, record->options.deadline,
                            probable_cache_hit);
      record->cost_units = verdict.cost_units;
      if (verdict.decision == AdmissionDecision::kReject) {
        reason = verdict.reason;
        record->reject_reason = verdict.reject;
      }
    }
    if (reason != nullptr) {
      record->state = JobState::kRejected;
      record->error = reason;
      ++counters_.rejected;
      ++tenant.rejected;
      rejected = true;
      rejected_status = snapshot_locked(*record);
      callback = callback_;
    } else {
      if (record->options.deadline.count() > 0) {
        record->deadline_at =
            core::CancelToken::Clock::now() + record->options.deadline;
        record->token.set_deadline(record->deadline_at);
      }
      record->state = JobState::kQueued;
      record->submit_seq = ++event_seq_;
      record->queued_at = core::CancelToken::Clock::now();
      queue_.push_back(record);
      queued_units_ += record->cost_units;
      maybe_preempt_locked();
    }
  }
  if (rejected) {
    invoke_callback(callback, rejected_status);
  } else {
    work_ready_.notify_one();
  }
  return JobHandle(std::move(record));
}

JobStatus SolverService::poll(const JobHandle& handle) const {
  if (handle.record_ == nullptr) return empty_handle_status();
  const std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked(*handle.record_);
}

JobStatus SolverService::wait(const JobHandle& handle) {
  if (handle.record_ == nullptr) return empty_handle_status();
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock,
                 [&] { return is_terminal(handle.record_->state); });
  return snapshot_locked(*handle.record_);
}

bool SolverService::cancel(const JobHandle& handle) {
  const std::shared_ptr<detail::JobRecord>& record = handle.record_;
  if (record == nullptr) return false;

  CompletionCallback callback;
  JobStatus status;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (record->state == JobState::kRunning) {
      // Honored at the solve's next cancellation checkpoint; the worker
      // performs the terminal transition.
      record->token.request_cancel();
      return true;
    }
    if (record->state != JobState::kQueued) return false;
    const auto it = std::find(queue_.begin(), queue_.end(), record);
    if (it != queue_.end()) queue_.erase(it);
    queued_units_ -= record->cost_units;
    settle_gauges_locked();
    record->state = JobState::kCancelled;
    record->error = "cancelled while queued";
    ++counters_.cancelled;
    ++tenant_counters_[record->options.tenant].cancelled;
    status = snapshot_locked(*record);
    callback = callback_;
  }
  job_done_.notify_all();
  invoke_callback(callback, status);
  return true;
}

void SolverService::on_completion(CompletionCallback callback) {
  const std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(callback);
}

void SolverService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock,
                 [&] { return queue_.empty() && running_jobs_.empty(); });
}

void SolverService::shutdown() {
  std::vector<JobStatus> dropped;
  CompletionCallback callback;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (const auto& record : queue_) {
      record->state = JobState::kCancelled;
      record->error = "service shutdown";
      ++counters_.cancelled;
      ++tenant_counters_[record->options.tenant].cancelled;
      dropped.push_back(snapshot_locked(*record));
    }
    queue_.clear();
    queued_units_ = 0.0;
    for (const auto& record : running_jobs_) {
      record->token.request_cancel();
    }
    callback = callback_;
  }
  work_ready_.notify_all();
  job_done_.notify_all();
  watchdog_wake_.notify_all();
  for (const JobStatus& status : dropped) invoke_callback(callback, status);
  for (std::thread& thread : dispatch_) {
    if (thread.joinable()) thread.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

ServiceStats SolverService::stats() const {
  ServiceStats out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.submitted = counters_.submitted;
    out.rejected = counters_.rejected;
    out.succeeded = counters_.succeeded;
    out.failed = counters_.failed;
    out.cancelled = counters_.cancelled;
    out.expired = counters_.expired;
    out.preempted = counters_.preempted;
    out.queued = queue_.size();
    out.running = running_jobs_.size();
    out.inflight_units = inflight_units_;
    out.queued_units = queued_units_;
    out.tenants = tenant_counters_;
  }
  out.solver = solver_.stats_snapshot();
  out.plan_cache = solver_.plan_cache_stats();
  return out;
}

AdmissionController::Estimate SolverService::estimate(
    core::Algorithm algorithm, std::size_t n) const {
  return admission_.estimate(algorithm, n);
}

std::size_t SolverService::max_n() const noexcept {
  return options_.solver.max_n;
}

std::size_t SolverService::resident_bytes() const {
  return solver_.resident_bytes();
}

std::size_t SolverService::release_scratch() {
  return solver_.release_scratch();
}

void SolverService::settle_gauges_locked() {
  // The priced gauges accumulate +=/-= of doubles; snap them to exactly
  // zero whenever their container empties so summation residue (the
  // ~1e-12 the soak battery surfaced) cannot leak into metrics or
  // admission fits() reads at idle.
  if (queue_.empty()) queued_units_ = 0.0;
  if (running_jobs_.empty()) inflight_units_ = 0.0;
}

void SolverService::watchdog_loop() {
  // The tick exists because deadline risk is a function of TIME, not of
  // events: with every worker deep in long solves, nothing calls
  // maybe_preempt_locked() while a queued deadline's remaining time
  // decays past the at-risk threshold.  Re-running the policy each
  // interval bounds how late the crossing is noticed by one tick.
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    watchdog_wake_.wait_for(lock, options_.watchdog_interval);
    if (stopping_) break;
    maybe_preempt_locked();
  }
}

std::shared_ptr<detail::JobRecord> SolverService::pop_runnable_locked() {
  // Priority aging (opt-in): one clock read shared by every comparison in
  // this pass, so the boosted ranking is a strict weak ordering even as
  // waits tick upward between calls.  Effective class = submitted class
  // + floor(wait / aging_interval), capped at kUrgent; FIFO within an
  // effective class, so a long-waiting kBatch job eventually outranks
  // freshly submitted kUrgent work and bounded starvation holds.
  const bool aging = options_.aging_interval.count() > 0;
  const auto now = aging ? core::CancelToken::Clock::now()
                         : core::CancelToken::Clock::time_point{};
  const auto aged_class = [&](const detail::JobRecord& r) {
    const auto boosts = (now - r.queued_at) / options_.aging_interval;
    const auto cls = static_cast<long long>(r.options.priority) + boosts;
    return std::min<long long>(
        cls, static_cast<long long>(Priority::kUrgent));
  };
  const auto ranks = [&](const detail::JobRecord& a,
                         const detail::JobRecord& b) {
    if (!aging) return ranks_before(a, b);
    const long long ca = aged_class(a);
    const long long cb = aged_class(b);
    if (ca != cb) return ca > cb;
    return a.submit_seq < b.submit_seq;
  };

  auto best = queue_.end();
  auto best_any = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (best_any == queue_.end() || ranks(**it, **best_any)) {
      best_any = it;
    }
    if (!admission_.fits((*it)->cost_units, inflight_units_)) continue;
    if (best == queue_.end() || ranks(**it, **best)) best = it;
  }
  if (best != queue_.end()) {
    auto record = *best;
    queue_.erase(best);
    return record;
  }
  // Nothing fits.  An idle pool still takes the best-ranked job: the
  // budget bounds concurrent work, it must not deadlock a job priced
  // above it.
  if (best_any != queue_.end() && running_jobs_.empty()) {
    auto record = *best_any;
    queue_.erase(best_any);
    return record;
  }
  return nullptr;
}

void SolverService::maybe_preempt_locked() {
  if (!options_.enable_preemption || running_jobs_.empty() ||
      queue_.empty() || stopping_) {
    return;
  }
  // The contender: the best-ranked queued job that carries a deadline and
  // outranks at least one running job.  Urgent-but-deadline-free work
  // still jumps the queue by ordering; only a deadline justifies
  // displacing work already paid for.
  const auto now = core::CancelToken::Clock::now();
  std::shared_ptr<detail::JobRecord> contender;
  for (const auto& record : queue_) {
    if (record->options.deadline.count() <= 0) continue;
    if (contender == nullptr || ranks_before(*record, *contender)) {
      contender = record;
    }
  }
  if (contender == nullptr) return;
  // If capacity frees up without displacement -- a free worker exists and
  // the job fits the budget -- dispatch handles it; preemption would be
  // pure waste.
  const bool fits_now =
      admission_.fits(contender->cost_units, inflight_units_);
  const bool free_worker = running_jobs_.size() < workers_;
  if (fits_now && free_worker) return;
  // At risk?  The contender must both wait for a worker and then solve:
  // its deadline is at risk when the remaining time is under
  //   slack * (own calibrated estimate + expected wait),
  // where the expected wait is the smallest calibrated remaining runtime
  // across the running jobs.  Anything uncalibrated cannot be bounded,
  // so it counts as at risk -- the scheduler protects the deadline when
  // it cannot rule a miss out.
  const double remaining =
      std::chrono::duration<double>(contender->deadline_at - now).count();
  const double estimate =
      admission_
          .estimate(contender->work.algorithm, contender->work.chain.size())
          .seconds;
  if (estimate >= 0.0) {
    double wait = free_worker ? 0.0
                              : std::numeric_limits<double>::infinity();
    if (!free_worker) {
      for (const auto& running : running_jobs_) {
        const double running_estimate =
            admission_
                .estimate(running->work.algorithm,
                          running->work.chain.size())
                .seconds;
        if (running_estimate < 0.0) continue;  // unknown: no bound
        const double elapsed =
            std::chrono::duration<double>(now - running->started_at)
                .count();
        wait = std::min(wait,
                        std::max(0.0, running_estimate - elapsed));
      }
    }
    if (remaining >= (estimate + wait) * options_.preemption_slack) {
      return;
    }
  }
  // Victim: the lowest-class running job strictly below the contender
  // (never preempt within a class), latest-started first so the least
  // progress is set aside; displacing it must actually let the contender
  // start.
  std::shared_ptr<detail::JobRecord> victim;
  for (const auto& running : running_jobs_) {
    if (running->preempt_pending) continue;
    if (running->options.priority >= contender->options.priority) continue;
    if (!fits_now &&
        !admission_.fits(contender->cost_units,
                         inflight_units_ - running->cost_units)) {
      continue;
    }
    if (victim == nullptr ||
        running->options.priority < victim->options.priority ||
        (running->options.priority == victim->options.priority &&
         running->start_seq > victim->start_seq)) {
      victim = running;
    }
  }
  if (victim == nullptr) return;
  victim->preempt_pending = true;
  victim->token.request_preempt();
}

bool SolverService::requeue_preempted(
    const std::shared_ptr<detail::JobRecord>& record) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A cancel, an expired deadline, or shutdown that raced the
    // preemption wins: those are terminal intents, handled by the
    // caller's completion path.
    if (stopping_ || record->token.cancel_requested() ||
        record->token.deadline_passed()) {
      return false;
    }
    record->token.clear_preempt();
    record->preempt_pending = false;
    record->state = JobState::kQueued;
    record->queued_at = core::CancelToken::Clock::now();
    ++record->preemptions;
    ++counters_.preempted;
    ++tenant_counters_[record->options.tenant].preempted;
    inflight_units_ -= record->cost_units;
    queued_units_ += record->cost_units;
    running_jobs_.erase(
        std::find(running_jobs_.begin(), running_jobs_.end(), record));
    settle_gauges_locked();
    // push_back is fine: dispatch ranks by (class, submit_seq), so the
    // job resumes ahead of anything submitted after it in its class.
    queue_.push_back(record);
  }
  work_ready_.notify_all();
  return true;
}

void SolverService::worker_loop() {
  for (;;) {
    std::shared_ptr<detail::JobRecord> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (stopping_) return;
        job = pop_runnable_locked();
        if (job != nullptr) break;
        work_ready_.wait(lock);
      }
      queued_units_ -= job->cost_units;
      settle_gauges_locked();
      inflight_units_ += job->cost_units;
      job->state = JobState::kRunning;
      job->start_seq = ++event_seq_;
      ++job->starts;
      job->started_at = core::CancelToken::Clock::now();
      running_jobs_.push_back(job);
      // A dispatch changes who is running: a queued deadline may now be
      // blocked behind this very job.
      maybe_preempt_locked();
    }

    // Pre-start screen: a deadline that passed (or a cancel that raced
    // the dispatch) while the job sat queued skips the solve entirely.
    if (job->token.cancel_requested()) {
      complete(job, JobState::kCancelled, nullptr, "cancelled before start",
               0.0);
      continue;
    }
    if (job->token.deadline_passed()) {
      complete(job, JobState::kExpired, nullptr, "deadline passed in queue",
               0.0);
      continue;
    }

    const auto start = std::chrono::steady_clock::now();
    try {
      core::OptimizationResult result =
          solver_.solve_job(job->work, &job->token);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      complete(job, JobState::kSucceeded, &result, std::string(), seconds);
    } catch (const core::SolveInterrupted& interrupted) {
      if (interrupted.reason() == core::InterruptReason::kPreempted &&
          requeue_preempted(job)) {
        continue;  // back in the queue; its next run resumes the solve
      }
      // A refused requeue means a terminal intent raced the preemption;
      // classify by what the token actually says.
      JobState state = JobState::kCancelled;
      if (interrupted.reason() == core::InterruptReason::kDeadline ||
          (interrupted.reason() == core::InterruptReason::kPreempted &&
           !job->token.cancel_requested() && job->token.deadline_passed())) {
        state = JobState::kExpired;
      }
      complete(job, state, nullptr, interrupted.what(), 0.0);
    } catch (const std::exception& error) {
      complete(job, JobState::kFailed, nullptr, error.what(), 0.0);
    }
  }
}

void SolverService::complete(const std::shared_ptr<detail::JobRecord>& record,
                             JobState state,
                             core::OptimizationResult* result,
                             std::string error, double seconds) {
  CompletionCallback callback;
  JobStatus status;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    record->state = state;
    record->preempt_pending = false;
    if (result != nullptr) record->result = std::move(*result);
    record->error = std::move(error);
    inflight_units_ -= record->cost_units;
    running_jobs_.erase(std::find(running_jobs_.begin(), running_jobs_.end(),
                                  record));
    settle_gauges_locked();
    maybe_preempt_locked();  // freed capacity may re-rank a blocked deadline
    TenantCounters& tenant = tenant_counters_[record->options.tenant];
    switch (state) {
      case JobState::kSucceeded:
        ++counters_.succeeded;
        ++tenant.succeeded;
        break;
      case JobState::kFailed:
        ++counters_.failed;
        ++tenant.failed;
        break;
      case JobState::kCancelled:
        ++counters_.cancelled;
        ++tenant.cancelled;
        break;
      case JobState::kExpired:
        ++counters_.expired;
        ++tenant.expired;
        break;
      default:
        break;
    }
    status = snapshot_locked(*record);
    callback = callback_;
  }
  if (state == JobState::kSucceeded) {
    admission_.observe(record->work.algorithm, record->cost_units, seconds);
  }
  work_ready_.notify_all();  // freed budget may unblock queued jobs
  job_done_.notify_all();
  invoke_callback(callback, status);
}

JobStatus SolverService::snapshot_locked(
    const detail::JobRecord& record) const {
  JobStatus status;
  status.id = record.id;
  status.state = record.state;
  status.priority = record.options.priority;
  status.tenant = record.options.tenant;
  status.cost_units = record.cost_units;
  status.reject_reason = record.reject_reason;
  status.submit_seq = record.submit_seq;
  status.start_seq = record.start_seq;
  status.starts = record.starts;
  status.preemptions = record.preemptions;
  if (record.state == JobState::kSucceeded) status.result = record.result;
  status.error = record.error;
  return status;
}

}  // namespace chainckpt::service
