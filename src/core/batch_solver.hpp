// Batched multi-chain solver: the server-shaped front end of the library.
//
// A production embedding does not optimize one chain at a time -- a request
// carries many independent chains (different lengths, platforms, and
// algorithms), and a long-lived process serves many requests.  BatchSolver
// drives such a workload through one engine:
//
//   * a shared work-queue: jobs are solved through util::parallel_for with
//     dynamic scheduling, so heterogeneous chains load-balance across
//     workers (an n = 400 ADMV* job does not serialize behind twenty
//     n = 50 ones);
//   * a coefficient-table cache: the O(n^2) analysis::SegmentTables --
//     the dominant per-solve setup cost -- is built once per distinct
//     core::table_key() (chain weights, error rates, planning law,
//     guaranteed-verification costs) and shared by every job that
//     matches, within a batch and across batches;
//   * one byte budget: BatchOptions::cache_budget_bytes bounds the
//     tables, the retained interruption checkpoints and the memoized plans
//     together, evicting the least recently used entry of any kind after
//     every insert, so a long-lived service bounds what it retains while
//     hot keys stay cached;
//   * an explicit lifecycle: release_scratch() drops the stores, returning
//     the memory between traffic bursts; the next solve simply rebuilds
//     what it needs.  A solve's scratch is its own and goes when the
//     solve returns or unwinds, so the stores are all the solver keeps.
//
// Determinism: every job's result (plan and objective) is bit-identical to
// a standalone core::optimize() call with the same inputs, whether the
// batch runs serially or in parallel, cached or cold, and whether an
// entry survived eviction or was rebuilt -- except plan-cache
// epsilon-hits, which BatchOptions::plan_cache_epsilon (0 by default)
// must opt into.
//
// Thread-safety: solve() and solve_job() are thread-safe against each
// other on the same instance (the stores, the LRU clock and the stats sit
// behind internal mutexes; the DP itself runs outside them).  Lock order:
// the solver's mutex, then the plan cache's, never the reverse.
// release_scratch() may run at any time, running solves included.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/cache_key.hpp"
#include "core/cancellation.hpp"
#include "core/optimizer.hpp"
#include "core/plan_cache.hpp"
#include "core/solve_checkpoint.hpp"

namespace chainckpt::core {

/// One chain to solve: which algorithm, over which chain, under which cost
/// model.  Jobs are self-contained so a batch can mix platforms and
/// per-position cost models freely.
struct BatchJob {
  Algorithm algorithm = Algorithm::kADMVstar;
  chain::TaskChain chain;
  platform::CostModel costs;
  /// Per-job relative-error tolerance for plan-cache epsilon-hits (see
  /// core/plan_cache.hpp): the job accepts a cached plan certified within
  /// (1 + cache_epsilon) of the drifted optimum.  Negative (the default)
  /// defers to BatchOptions::plan_cache_epsilon; 0 restricts this job to
  /// exact hits.
  double cache_epsilon = -1.0;
};

struct BatchOptions {
  /// Default cache_budget_bytes: 1 GiB.
  static constexpr std::size_t kDefaultCacheBudgetBytes = std::size_t{1}
                                                          << 30;

  /// Upper bound on chain length, guarding the O(n^4) and O(n^6) solve
  /// times of the multi-level DPs (see DpContext::kDefaultMaxN).
  std::size_t max_n = DpContext::kDefaultMaxN;
  /// The one memory budget: a byte bound on the budgeted bytes -- the
  /// coefficient tables, the retained interruption checkpoints and the
  /// memoized plans together (BatchStats::budgeted_bytes).  The three
  /// stores share one LRU clock; after every insert (a table build, a
  /// retained checkpoint, a plan) the least recently used entries of any
  /// kind are evicted until the budgeted bytes fit.  Entries still being
  /// built and checkpoints checked out by a running solve are never
  /// evicted; an entry larger than the whole budget goes right after its
  /// insert (the solve that built it keeps its own reference).  An
  /// evicted table is rebuilt, an evicted plan re-solved and a dropped
  /// checkpoint restarted on next use, so results are unaffected.  A
  /// plain byte count: 0 retains nothing.
  std::size_t cache_budget_bytes = kDefaultCacheBudgetBytes;
  /// Memoize final plans in a core::PlanCache and serve repeat
  /// submissions (solve() and solve_job() alike) from it: exact key
  /// matches return the stored result bitwise; near-misses may be served
  /// under an epsilon tolerance (see plan_cache_epsilon).
  bool enable_plan_cache = true;
  /// Default epsilon for jobs that leave BatchJob::cache_epsilon
  /// negative.  0 (the default) serves exact hits only.
  double plan_cache_epsilon = 0.0;
};

/// Counters accumulated over the solver's lifetime, plus one gauge.
struct BatchStats {
  std::size_t jobs_solved = 0;
  /// Distinct SegmentTables constructed.
  std::size_t tables_built = 0;
  /// DP jobs served by a previously built table (same batch or earlier).
  std::size_t tables_reused = 0;
  /// Tables dropped by the budget, and their bytes.
  std::size_t tables_evicted = 0;
  std::size_t evicted_bytes = 0;
  /// Total bytes release_scratch() has given back so far.
  std::size_t released_bytes = 0;
  /// solve_job() calls that ended in SolveInterrupted (cancellation,
  /// deadline, or preemption) instead of a result.
  std::size_t jobs_interrupted = 0;
  /// Interrupted solves whose partial progress was retained for resume,
  /// and retained checkpoints dropped by the budget (or superseded by a
  /// concurrent solve of the same workload).
  std::size_t checkpoints_saved = 0;
  std::size_t checkpoints_dropped = 0;
  /// Solves that started from a retained checkpoint, and the slabs those
  /// resumes skipped instead of re-executing.
  std::size_t checkpoints_resumed = 0;
  std::size_t checkpoint_slabs_skipped = 0;
  /// Always 0: every table is built from scratch.  Kept only for
  /// readers of the former incremental patch path's counter.
  std::size_t tables_patched = 0;
  /// Fresh solves whose objective exceeded the plan cache's warm upper
  /// bound (the evaluator re-score of a stale plan) beyond rounding: a
  /// certificate or solver bug.  Must stay 0.
  std::size_t warm_bound_violations = 0;
  /// Aggregated scan counters of every solved DP job.
  ScanStats scan;
  /// Gauge: the budgeted bytes (tables, retained checkpoints and
  /// memoized plans) when the snapshot was taken.  Every insert evicts
  /// under the same lock, so no snapshot reads more than
  /// BatchOptions::cache_budget_bytes.
  std::size_t budgeted_bytes = 0;
};

class BatchSolver {
 public:
  explicit BatchSolver(BatchOptions options = {});

  /// Solves every job; results[i] corresponds to jobs[i].  Validates the
  /// whole batch before solving anything, then runs solve_job() on every
  /// job through one util::parallel_for, so batch jobs share the caches
  /// and counters of service jobs.  Safe to call repeatedly.
  std::vector<OptimizationResult> solve(const std::vector<BatchJob>& jobs);

  /// Solves one job through the shared caches.  Workers serving an async
  /// queue call it directly (see service::SolverService).  Concurrent
  /// callers missing the same table key build its tables once (the first
  /// claims the build, the rest wait).  `cancel`, when non-null, is
  /// threaded to the DP's cooperative checkpoints; a fired token makes
  /// this call throw SolveInterrupted (counted in
  /// stats_snapshot().jobs_interrupted) with the cache intact.  Results
  /// are bit-identical to standalone optimize().
  OptimizationResult solve_job(const BatchJob& job,
                               const CancelToken* cancel = nullptr);

  /// Drops this solver's coefficient-table cache, its retained solve
  /// checkpoints and its memoized plans; returns the number of bytes
  /// freed.  Safe at any time: a running solve keeps its own references
  /// and scratch, and the next solve() rebuilds on demand and reproduces
  /// identical results.
  std::size_t release_scratch();

  /// Cheap probe for admission pricing: would solve_job(job) probably be
  /// served from the plan cache without running the DP?  (See
  /// PlanCache::probable_hit -- a probed epsilon-hit can still re-solve
  /// if its re-score fails the epsilon test.)  Always false while
  /// enable_plan_cache is off or for non-DP algorithms.
  bool probable_plan_cache_hit(const BatchJob& job) const;

  /// Plan-cache counters (hits/misses/evictions reconcile with
  /// stats_snapshot().jobs_solved; see PlanCacheStats).
  PlanCacheStats plan_cache_stats() const;

  /// The budgeted bytes, equal to stats_snapshot().budgeted_bytes.
  std::size_t resident_bytes() const;

  const BatchOptions& options() const noexcept { return options_; }
  /// Consistent copy of the counters and the budgeted-bytes gauge, taken
  /// under the solver lock.
  BatchStats stats_snapshot() const;

 private:
  /// A table-cache entry, keyed by core::table_key(): jobs differing only
  /// in inputs the tables never read (checkpoint/recovery costs, the
  /// partial-verification stream, recall) share one table.
  struct TableEntry {
    std::shared_ptr<const analysis::SegmentTables> seg;
    /// The table's resident bytes, set when the build lands.
    std::size_t bytes = 0;
    /// LRU stamp from clock_.  Eviction runs only over budget and scans
    /// each store for its minimum stamp instead of keeping an intrusive
    /// list.
    std::uint64_t last_used = 0;
    /// A solve_job() worker is building this entry; other workers wait on
    /// build_done_ and eviction skips it.
    bool building = false;
  };

  /// A retained interruption checkpoint: the partial progress of one
  /// (workload, algorithm), checked OUT of the store for the duration of
  /// a solve (exclusive ownership) and checked back in only if the solve
  /// is interrupted again.  Keyed by the job's core::exact_key() -- every
  /// input the DP reads, so also every input the committed slabs read --
  /// so a checkpoint can never be resumed by a solve it would not be
  /// bit-identical for.
  struct CheckpointEntry {
    std::shared_ptr<SolveCheckpoint> checkpoint;
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;
  };

  /// The following helpers require mutex_ to be held.
  std::size_t budgeted_bytes_locked() const;
  /// The one eviction loop: drops least-recently-used entries of any
  /// kind until the budgeted bytes fit options_.cache_budget_bytes.
  void enforce_budget_locked();

  const BatchOptions options_;
  /// The LRU clock shared by all three stores.
  LruClock clock_{0};
  /// Memoized final plans.  Its own lock nests inside mutex_ (never the
  /// other way round); lookups take it alone.  Inserts run under mutex_,
  /// so an insert and its eviction are one step to every other thread.
  PlanCache plan_cache_{clock_};
  std::unordered_map<CacheKey, TableEntry, CacheKeyHash> tables_;
  std::unordered_map<CacheKey, CheckpointEntry, CacheKeyHash> checkpoints_;
  /// Running byte totals of tables_ and checkpoints_.
  std::size_t table_bytes_ = 0;
  std::size_t checkpoint_bytes_ = 0;
  BatchStats stats_;
  /// Guards tables_, checkpoints_, their byte totals and stats_.
  mutable std::mutex mutex_;
  std::condition_variable build_done_;
};

}  // namespace chainckpt::core
