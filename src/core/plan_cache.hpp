// Memoization of final plans, with certified serving under drift.
//
// A fleet-scale embedding sees mostly near-duplicate requests: the same
// chain resubmitted with identical parameters (telemetry re-publishes),
// or with slightly drifted rates and costs (the monitoring pipeline
// refreshed its lambda estimates).  PlanCache turns both into sub-DP
// work:
//
//   * EXACT HIT -- the request's bit-key over everything the requested
//     algorithm's DP reads (chain weights, rates, planning law, and the
//     cost streams; the partial-verification stream and recall only for
//     kADMV, the one engine that reads them) matches a cached entry.
//     The stored OptimizationResult is returned as-is, so an exact hit
//     is bitwise-identical to a fresh solve BY CONSTRUCTION -- the DP is
//     deterministic in exactly the keyed inputs.  No certificate is
//     involved; key equality is the proof.
//
//   * EPSILON HIT -- the key misses but a cached entry exists for the
//     same (algorithm, chain weights).  The entry's
//     core::ValidityCertificate screens the parameter drift (advisory
//     Young/Daly radii) and supplies a *sound* lower bound on the
//     drifted optimum; the cached plan is re-scored by the law-aware
//     analysis::PlanEvaluator under the REQUESTED model, and served only
//     when that score is within (1 + epsilon) of the lower bound --
//     which certifies relative error <= epsilon against the unknown
//     optimum.  The served objective is the evaluator's re-score (the
//     honest expectation under the requested model), not the stale one.
//
//   * CERT REJECTION -- the candidate exists but drifted beyond a radius
//     or failed the epsilon test.  The caller must re-solve; the lookup
//     hands back the candidate's evaluator re-score as a warm upper
//     bound (any plan's score bounds the optimum from above), which
//     BatchSolver uses as a post-solve oracle check.
//
// Eviction: the cache never evicts on its own.  core::BatchSolver bounds
// it together with its table and checkpoint stores under one byte budget
// (BatchOptions::cache_budget_bytes): the stores share one LRU clock, and
// the solver's eviction loop drops plans through evict_oldest_before().
// A standalone cache is unbounded.  Thread-safety: all entry points are
// safe against each other; the evaluator re-score runs outside the lock
// (entries are immutable after insert except for their LRU stamp).  The
// cache never calls out while holding its lock, so a caller may hold its
// own lock around any entry point.
//
// See docs/CACHING.md for the full contract and tuning guidance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chain/chain.hpp"
#include "core/cache_key.hpp"
#include "core/optimizer.hpp"
#include "core/sensitivity.hpp"
#include "platform/cost_model.hpp"

namespace chainckpt::core {

/// Monotone counters; every lookup() lands in exactly one of
/// {exact_hits, epsilon_hits, cert_rejections, misses}, so
/// lookups == exact_hits + epsilon_hits + cert_rejections + misses.
struct PlanCacheStats {
  std::size_t lookups = 0;
  std::size_t exact_hits = 0;
  std::size_t epsilon_hits = 0;
  /// A same-shape candidate existed but could not be served: drift beyond
  /// an advisory radius, epsilon disabled, or the re-score failed the
  /// epsilon test.  The caller re-solved.
  std::size_t cert_rejections = 0;
  /// No cached plan for the (algorithm, chain weights) shape at all.
  std::size_t misses = 0;
  std::size_t inserts = 0;
  std::size_t evictions = 0;
  std::size_t evicted_bytes = 0;
};

enum class CacheOutcome {
  kMiss,
  kExactHit,
  kEpsilonHit,
  kCertRejected,
};

struct CacheLookup {
  CacheOutcome outcome = CacheOutcome::kMiss;
  /// Valid for kExactHit (the stored result, bitwise) and kEpsilonHit
  /// (the cached plan with the evaluator's re-score as objective and
  /// zeroed scan counters -- no DP ran).
  OptimizationResult result;
  /// For kEpsilonHit and kCertRejected: the cached plan's expected
  /// makespan under the REQUESTED model -- a sound upper bound on the
  /// drifted optimum (pass it to the re-solve as a warm bound).
  double warm_upper_bound = 0.0;
  bool has_warm_bound = false;
  /// The certificate's sound lower bound on the drifted optimum (0 when
  /// no candidate was found).
  double lower_bound = 0.0;
  /// For kEpsilonHit: the certified relative-error bound
  /// (re-score / lower_bound - 1), always <= the requested epsilon.
  double error_bound = 0.0;
};

class PlanCache {
 public:
  /// A cache with a clock of its own.
  PlanCache();
  /// A cache that stamps its entries from `clock`, shared with the other
  /// stores one budget orders (see core::BatchSolver); `clock` must
  /// outlive the cache.
  explicit PlanCache(LruClock& clock);

  /// Looks the request up.  `epsilon` is the caller's relative-error
  /// tolerance for serving a drifted plan; <= 0 restricts the cache to
  /// exact hits (near-miss candidates still yield kCertRejected with a
  /// warm bound).  Runs the evaluator re-score for near-miss candidates
  /// outside the internal lock.
  CacheLookup lookup(Algorithm algorithm, const chain::TaskChain& chain,
                     const platform::CostModel& costs, double epsilon);

  /// Memoizes a freshly solved result.  Builds the validity certificate
  /// (advisory radii + the base objective for the gamma bound) and
  /// registers the entry as the (algorithm, weights) shape's most recent
  /// candidate.  Inserting an already-cached key refreshes its LRU stamp
  /// only -- by the determinism contract the result is identical.
  void insert(Algorithm algorithm, const chain::TaskChain& chain,
              const platform::CostModel& costs,
              const OptimizationResult& result);

  /// Cheap admission probe: true when a lookup would hit without running
  /// the DP -- the exact key is cached, or a same-shape candidate sits
  /// inside every advisory radius and epsilon allows serving it.  Does
  /// not touch LRU stamps or counters, and does not run the evaluator
  /// (so a probed epsilon-hit may still re-solve if the re-score fails).
  bool probable_hit(Algorithm algorithm, const chain::TaskChain& chain,
                    const platform::CostModel& costs, double epsilon) const;

  /// Evicts the least recently used entry if its LRU stamp is below
  /// `stamp` (counted in evictions); returns the bytes freed, 0 when no
  /// entry is that old.  One step of core::BatchSolver's eviction loop.
  std::size_t evict_oldest_before(std::uint64_t stamp);

  /// Drops every entry; returns the bytes freed (not counted as
  /// evictions).
  std::size_t clear();

  /// Bytes the cache holds: every entry (its map node and exact key, the
  /// shared entry block, the plan and any per-position cost streams) and
  /// the shape index (a node and a shape key per shape).  A running
  /// total, so the call is O(1).
  std::size_t resident_bytes() const;
  std::size_t size() const;
  PlanCacheStats stats_snapshot() const;

 private:
  /// Immutable after insert except for the LRU stamp (lock-guarded);
  /// lookups hold the shared_ptr and read result/cert/costs outside the
  /// lock.  Its exact key lives only in entries_, its shape key only in
  /// shape_index_.
  struct Entry {
    OptimizationResult result;
    ValidityCertificate cert;
    platform::CostModel costs;
    /// What the entry holds outside the shape index: see entry_bytes().
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;
  };
  using EntryMap =
      std::unordered_map<CacheKey, std::shared_ptr<Entry>, CacheKeyHash>;

  static std::size_t entry_bytes(const CacheKey& exact_key,
                                 const Entry& entry) noexcept;

  /// Points `shape`'s index slot at `entry`, counting a new slot's bytes.
  /// Requires mutex_.
  void index_shape_locked(CacheKey shape, const std::shared_ptr<Entry>& entry);

  LruClock own_clock_{0};
  LruClock& clock_;
  PlanCacheStats stats_;
  /// Running total behind resident_bytes().
  std::size_t resident_bytes_ = 0;
  /// Keyed by core::exact_key(): every input the algorithm's DP reads.
  EntryMap entries_;
  /// Most recent entry per core::shape_key() -- the candidate a near-miss
  /// lookup checks the certificate against.  Every value is also in
  /// entries_ (eviction unhooks it).
  EntryMap shape_index_;
  mutable std::mutex mutex_;
};

}  // namespace chainckpt::core
