#include "core/plan_cache.hpp"

#include <utility>

#include "analysis/evaluator.hpp"
#include "util/assert.hpp"

namespace chainckpt::core {

namespace {

/// Heap bytes of one node of a node-based hash map: the stored pair and
/// the next link.
template <typename Map>
constexpr std::size_t node_bytes() noexcept {
  return sizeof(typename Map::value_type) + sizeof(void*);
}

std::size_t key_bytes(const CacheKey& key) noexcept {
  return key.bits.capacity() * sizeof(std::uint64_t);
}

}  // namespace

PlanCache::PlanCache() : clock_(own_clock_) {}

PlanCache::PlanCache(LruClock& clock) : clock_(clock) {}

std::size_t PlanCache::entry_bytes(const CacheKey& exact_key,
                                   const Entry& entry) noexcept {
  // The entries_ node and its key words, the make_shared block (control
  // block + Entry), the plan's action vector, and the cost model's
  // per-position streams (uniform models store none).
  std::size_t bytes = node_bytes<EntryMap>() + key_bytes(exact_key);
  bytes += 2 * sizeof(void*) + sizeof(Entry);
  bytes += entry.result.plan.size() * sizeof(plan::Action);
  if (!entry.costs.is_uniform()) {
    bytes += entry.result.plan.size() * 6 * sizeof(double);
  }
  return bytes;
}

CacheLookup PlanCache::lookup(Algorithm algorithm,
                              const chain::TaskChain& chain,
                              const platform::CostModel& costs,
                              double epsilon) {
  CacheLookup out;
  const CacheKey exact = exact_key(algorithm, chain, costs);
  std::shared_ptr<Entry> candidate;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    const auto it = entries_.find(exact);
    if (it != entries_.end()) {
      it->second->last_used = ++clock_;
      ++stats_.exact_hits;
      out.outcome = CacheOutcome::kExactHit;
      out.result = it->second->result;
      return out;
    }
    const auto shape_it = shape_index_.find(shape_key(algorithm, chain));
    if (shape_it != shape_index_.end()) candidate = shape_it->second;
    if (candidate == nullptr) {
      ++stats_.misses;
      return out;  // kMiss
    }
  }

  // Near-miss path, outside the lock: certificate screen, then the
  // law-aware re-score of the cached plan under the REQUESTED model.
  const DriftCheck check =
      check_certificate(candidate->cert, candidate->costs, costs,
                        chain.size());
  out.lower_bound = check.lower_bound;
  // Score under the formula framework the algorithm's DP optimizes: the
  // kADMV engine prices every segment with the Section III-B accounting
  // even when the optimal plan ends up partial-free, and the two
  // frameworks differ by a small but real margin (see DESIGN.md) -- a
  // kAuto re-score of a partial-free plan would undercut the DP objective
  // and break the warm bound's upper-bound contract.
  const analysis::PlanEvaluator evaluator(chain, costs);
  const double score = evaluator.expected_makespan(
      candidate->result.plan,
      algorithm == Algorithm::kADMV
          ? analysis::FormulaMode::kPartialFramework
          : analysis::FormulaMode::kAuto);
  out.warm_upper_bound = score;
  out.has_warm_bound = true;
  const bool servable = check.outcome != DriftOutcome::kBeyondRadius &&
                        epsilon > 0.0 && check.lower_bound > 0.0 &&
                        score <= (1.0 + epsilon) * check.lower_bound;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (servable) {
    candidate->last_used = ++clock_;
    ++stats_.epsilon_hits;
    out.outcome = CacheOutcome::kEpsilonHit;
    out.result.plan = candidate->result.plan;
    out.result.expected_makespan = score;
    out.result.scan = ScanStats{};
    out.error_bound = score / check.lower_bound - 1.0;
  } else {
    ++stats_.cert_rejections;
    out.outcome = CacheOutcome::kCertRejected;
  }
  return out;
}

void PlanCache::insert(Algorithm algorithm, const chain::TaskChain& chain,
                       const platform::CostModel& costs,
                       const OptimizationResult& result) {
  CacheKey exact = exact_key(algorithm, chain, costs);
  CacheKey shape = shape_key(algorithm, chain);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(exact);
    if (it != entries_.end()) {
      it->second->last_used = ++clock_;
      index_shape_locked(std::move(shape), it->second);
      return;
    }
  }
  // Certificate construction (a first_order pass plus plan counts) stays
  // outside the lock.
  auto entry = std::make_shared<Entry>(Entry{
      result,
      make_validity_certificate(result.plan, costs.platform(),
                                result.expected_makespan,
                                chain.total_weight()),
      costs, 0, 0});
  // The kADMV engine prices even partial-free optima under the III-B
  // framework; the certificate's gamma fold must know (see sensitivity.hpp).
  if (algorithm == Algorithm::kADMV) entry->cert.partial_framework = true;
  entry->bytes = entry_bytes(exact, *entry);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.try_emplace(std::move(exact), entry);
  // Raced another insert of the same key: the results are identical by
  // the determinism contract, so the incumbent stays and is touched.
  it->second->last_used = ++clock_;
  if (inserted) {
    ++stats_.inserts;
    resident_bytes_ += entry->bytes;
  }
  index_shape_locked(std::move(shape), it->second);
}

void PlanCache::index_shape_locked(CacheKey shape,
                                   const std::shared_ptr<Entry>& entry) {
  const auto [it, inserted] =
      shape_index_.insert_or_assign(std::move(shape), entry);
  if (inserted) {
    resident_bytes_ += node_bytes<EntryMap>() + key_bytes(it->first);
  }
}

bool PlanCache::probable_hit(Algorithm algorithm,
                             const chain::TaskChain& chain,
                             const platform::CostModel& costs,
                             double epsilon) const {
  std::shared_ptr<Entry> candidate;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(exact_key(algorithm, chain, costs)) != 0) {
      return true;
    }
    if (epsilon <= 0.0) return false;
    const auto shape_it = shape_index_.find(shape_key(algorithm, chain));
    if (shape_it == shape_index_.end()) return false;
    candidate = shape_it->second;
  }
  const DriftCheck check =
      check_certificate(candidate->cert, candidate->costs, costs,
                        chain.size());
  return check.outcome != DriftOutcome::kBeyondRadius;
}

std::size_t PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t freed = resident_bytes_;
  entries_.clear();
  shape_index_.clear();
  resident_bytes_ = 0;
  return freed;
}

std::size_t PlanCache::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::size_t PlanCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

PlanCacheStats PlanCache::stats_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PlanCache::evict_oldest_before(std::uint64_t stamp) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second->last_used < stamp &&
        (victim == entries_.end() ||
         it->second->last_used < victim->second->last_used)) {
      victim = it;
    }
  }
  if (victim == entries_.end()) return 0;
  // Unhook the shape index if it points at the victim, so near-miss
  // lookups never serve an evicted plan.
  std::size_t bytes = victim->second->bytes;
  for (auto it = shape_index_.begin(); it != shape_index_.end(); ++it) {
    if (it->second == victim->second) {
      bytes += node_bytes<EntryMap>() + key_bytes(it->first);
      shape_index_.erase(it);
      break;
    }
  }
  entries_.erase(victim);
  resident_bytes_ -= bytes;
  stats_.evicted_bytes += bytes;
  ++stats_.evictions;
  return bytes;
}

}  // namespace chainckpt::core
