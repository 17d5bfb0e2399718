#include "core/batch_solver.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core {

namespace {

/// The four dynamic programs read the shared coefficient tables; the
/// heuristic baselines score candidate plans through the analytic
/// evaluator and gain nothing from a prebuilt context.
bool is_dp_algorithm(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kAD:
    case Algorithm::kADVstar:
    case Algorithm::kADMVstar:
    case Algorithm::kADMV:
      return true;
    case Algorithm::kPeriodic:
    case Algorithm::kDaly:
      return false;
  }
  return false;
}

/// The multi-level engines commit per-d1 slab progress into a
/// core::SolveCheckpoint; the streamed single-level DPs and the
/// heuristics are cheap enough to just restart.
bool is_checkpointable(Algorithm algorithm) {
  return algorithm == Algorithm::kADMVstar || algorithm == Algorithm::kADMV;
}

/// The entry of `store` with the smallest LRU stamp among those
/// `evictable` accepts; store.end() when there is none.
template <typename Store, typename Evictable>
typename Store::iterator lru_entry(Store& store, Evictable evictable) {
  auto victim = store.end();
  for (auto it = store.begin(); it != store.end(); ++it) {
    if (evictable(it->second) &&
        (victim == store.end() ||
         it->second.last_used < victim->second.last_used)) {
      victim = it;
    }
  }
  return victim;
}

/// solve_job()'s input checks, run over a whole batch before any job
/// starts.
void validate(const BatchJob& job, std::size_t max_n) {
  CHAINCKPT_REQUIRE(!job.chain.empty(), "batch job needs a non-empty chain");
  if (is_dp_algorithm(job.algorithm)) {
    CHAINCKPT_REQUIRE(job.chain.size() <= max_n,
                      "batch job chain longer than BatchOptions::max_n");
  }
}

}  // namespace

BatchSolver::BatchSolver(BatchOptions options) : options_(options) {}

std::vector<OptimizationResult> BatchSolver::solve(
    const std::vector<BatchJob>& jobs) {
  for (const BatchJob& job : jobs) validate(job, options_.max_n);
  // Dynamic scheduling load-balances the heterogeneous jobs; threads
  // take whole chains while any are left, then help the slab and table
  // loops of the jobs still running.
  std::vector<OptimizationResult> results(jobs.size());
  util::parallel_for(0, jobs.size(),
                     [&](std::size_t i) { results[i] = solve_job(jobs[i]); });
  return results;
}

OptimizationResult BatchSolver::solve_job(const BatchJob& job,
                                          const CancelToken* cancel) {
  validate(job, options_.max_n);

  // The heuristic baselines read no shared tables; poll once and run.
  if (!is_dp_algorithm(job.algorithm)) {
    poll_cancellation(cancel);
    OptimizationResult result = optimize(job.algorithm, job.chain, job.costs);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_solved;
    return result;
  }

  // Plan-cache front door: an exact key match returns the memoized
  // result bitwise; a certified epsilon-hit returns the cached plan
  // re-scored under this job's model.  Either way the DP (and the table
  // cache) is never touched.  A near-miss that cannot be served leaves a
  // warm upper bound for the post-solve oracle check below.
  double warm_bound = 0.0;
  bool have_warm_bound = false;
  if (options_.enable_plan_cache) {
    const double epsilon = job.cache_epsilon >= 0.0
                               ? job.cache_epsilon
                               : options_.plan_cache_epsilon;
    CacheLookup cached =
        plan_cache_.lookup(job.algorithm, job.chain, job.costs, epsilon);
    if (cached.outcome == CacheOutcome::kExactHit ||
        cached.outcome == CacheOutcome::kEpsilonHit) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.jobs_solved;
      return cached.result;
    }
    if (cached.has_warm_bound) {
      warm_bound = cached.warm_upper_bound;
      have_warm_bound = true;
    }
  }

  const CacheKey key = table_key(job.chain, job.costs);

  // Acquire (building if necessary) the shared table.  References into
  // the map survive rehashes; the loop re-looks the key up after every
  // wait, so a concurrent eviction of the entry just causes a rebuild
  // instead of a dangling pointer.
  std::shared_ptr<const analysis::SegmentTables> seg;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      TableEntry& entry = tables_.try_emplace(key).first->second;
      if (entry.seg != nullptr) {
        entry.last_used = ++clock_;
        ++stats_.tables_reused;
        seg = entry.seg;
        break;
      }
      if (entry.building) {
        build_done_.wait(lock);
        continue;  // re-resolve: built, or even evicted
      }
      entry.building = true;
      lock.unlock();
      try {
        seg = std::make_shared<const analysis::SegmentTables>(job.chain,
                                                              job.costs);
      } catch (...) {
        lock.lock();
        // The entry never got tables; drop it rather than leave an
        // unevictable zero-byte zombie.
        tables_.erase(key);
        build_done_.notify_all();
        throw;
      }
      lock.lock();
      // Re-resolve after re-locking: the unlocked build may have raced a
      // rehash (pointer-stable, but re-looking up is simpler to reason
      // about than held references across the gap).
      TableEntry& built = tables_.try_emplace(key).first->second;
      built.seg = seg;
      built.building = false;
      built.bytes = seg->resident_bytes();
      built.last_used = ++clock_;
      table_bytes_ += built.bytes;
      ++stats_.tables_built;
      enforce_budget_locked();
      build_done_.notify_all();
      break;
    }
  }

  // Check out any retained checkpoint for this exact workload: an earlier
  // interrupted solve_job() left its completed slabs here, and this run
  // resumes them.  Checkout is exclusive -- a concurrent solve of the
  // same workload simply starts fresh (last interrupt wins the store).
  CacheKey ckpt_key;
  std::shared_ptr<SolveCheckpoint> ckpt;
  bool resumed = false;
  if (is_checkpointable(job.algorithm)) {
    ckpt_key = exact_key(job.algorithm, job.chain, job.costs);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = checkpoints_.find(ckpt_key);
      if (it != checkpoints_.end()) {
        ckpt = std::move(it->second.checkpoint);
        checkpoint_bytes_ -= it->second.bytes;
        checkpoints_.erase(it);
        resumed = ckpt->has_progress();
      }
    }
    if (ckpt == nullptr) ckpt = std::make_shared<SolveCheckpoint>();
  }

  // The solve itself runs outside the lock -- the shared_ptr keeps the
  // table alive even if the entry is evicted mid-solve.
  DpContext ctx(job.chain, job.costs, std::move(seg), options_.max_n);
  ctx.set_cancel_token(cancel);
  ctx.set_checkpoint(ckpt.get());
  OptimizationResult result;
  try {
    result = optimize(job.algorithm, ctx);
  } catch (const SolveInterrupted&) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.jobs_interrupted;
      if (ckpt != nullptr && ckpt->has_progress()) {
        // Retain the partial progress for the job's next submission; a
        // checkpoint another interrupt stored for the same key while we
        // ran is superseded (ours is at least as fresh).
        CheckpointEntry& entry = checkpoints_[ckpt_key];
        if (entry.checkpoint != nullptr) ++stats_.checkpoints_dropped;
        checkpoint_bytes_ -= entry.bytes;
        entry.checkpoint = std::move(ckpt);
        entry.bytes = entry.checkpoint->resident_bytes();
        entry.last_used = ++clock_;
        checkpoint_bytes_ += entry.bytes;
        ++stats_.checkpoints_saved;
        enforce_budget_locked();
      }
    }
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_solved;
    stats_.scan += result.scan;
    if (resumed) {
      ++stats_.checkpoints_resumed;
      stats_.checkpoint_slabs_skipped += ckpt->last_run_slabs_skipped();
    }
    // Oracle guard: the rejected candidate's re-score upper-bounds the
    // optimum, so a fresh solve above it (beyond rounding) means the
    // solver or the certificate lied.
    if (have_warm_bound &&
        result.expected_makespan > warm_bound * (1.0 + 1e-9)) {
      ++stats_.warm_bound_violations;
    }
    if (options_.enable_plan_cache) {
      plan_cache_.insert(job.algorithm, job.chain, job.costs, result);
      enforce_budget_locked();
    }
  }
  return result;
}

std::size_t BatchSolver::release_scratch() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t freed =
      table_bytes_ + checkpoint_bytes_ + plan_cache_.clear();
  tables_.clear();
  checkpoints_.clear();
  table_bytes_ = 0;
  checkpoint_bytes_ = 0;
  stats_.released_bytes += freed;
  return freed;
}

bool BatchSolver::probable_plan_cache_hit(const BatchJob& job) const {
  if (!options_.enable_plan_cache || !is_dp_algorithm(job.algorithm) ||
      job.chain.empty()) {
    return false;
  }
  const double epsilon = job.cache_epsilon >= 0.0
                             ? job.cache_epsilon
                             : options_.plan_cache_epsilon;
  return plan_cache_.probable_hit(job.algorithm, job.chain, job.costs,
                                  epsilon);
}

PlanCacheStats BatchSolver::plan_cache_stats() const {
  return plan_cache_.stats_snapshot();
}

std::size_t BatchSolver::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return budgeted_bytes_locked();
}

BatchStats BatchSolver::stats_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  BatchStats stats = stats_;
  stats.budgeted_bytes = budgeted_bytes_locked();
  return stats;
}

std::size_t BatchSolver::budgeted_bytes_locked() const {
  return table_bytes_ + checkpoint_bytes_ + plan_cache_.resident_bytes();
}

void BatchSolver::enforce_budget_locked() {
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  while (budgeted_bytes_locked() > options_.cache_budget_bytes) {
    // The oldest entry of any kind goes first.  Table entries mid-build
    // hold no bytes yet and are skipped; checked-out checkpoints are not
    // in the store at all.
    const auto table_it = lru_entry(
        tables_, [](const TableEntry& e) { return e.seg != nullptr; });
    const auto ckpt_it =
        lru_entry(checkpoints_, [](const CheckpointEntry&) { return true; });
    const std::uint64_t table_stamp =
        table_it == tables_.end() ? kNone : table_it->second.last_used;
    const std::uint64_t ckpt_stamp =
        ckpt_it == checkpoints_.end() ? kNone : ckpt_it->second.last_used;
    if (plan_cache_.evict_oldest_before(std::min(table_stamp, ckpt_stamp)) >
        0) {
      continue;
    }
    if (table_stamp < ckpt_stamp) {
      table_bytes_ -= table_it->second.bytes;
      ++stats_.tables_evicted;
      stats_.evicted_bytes += table_it->second.bytes;
      tables_.erase(table_it);
    } else if (ckpt_it != checkpoints_.end()) {
      checkpoint_bytes_ -= ckpt_it->second.bytes;
      ++stats_.checkpoints_dropped;
      checkpoints_.erase(ckpt_it);
    } else {
      break;  // only entries mid-build are left
    }
  }
}

}  // namespace chainckpt::core
