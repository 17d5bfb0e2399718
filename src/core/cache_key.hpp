// Bit-exact keys for the solver's three stores: core::BatchSolver's
// coefficient-table cache and retained-checkpoint store, and
// core::PlanCache.  Each store keys its contents by exactly the inputs
// those contents read, as raw bit patterns, so a hit is correct by
// construction and requests differing only in unread inputs share an
// entry.  Bitwise comparison (not double ==) keeps hash and equality
// consistent for every value, -0.0 and NaN included.
//
// The three stores also share one LRU clock, so one byte budget can
// order entries of every kind (BatchOptions::cache_budget_bytes).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "chain/chain.hpp"
#include "core/optimizer.hpp"
#include "platform/cost_model.hpp"

namespace chainckpt::core {

struct CacheKey {
  std::vector<std::uint64_t> bits;
  bool operator==(const CacheKey& other) const noexcept {
    return bits == other.bits;
  }
};

/// The stores' shared LRU clock: every insert or touch of an entry stamps
/// it with the next tick, so the smallest stamp of any kind is the least
/// recently used entry.
using LruClock = std::atomic<std::uint64_t>;

/// FNV-1a over the key words, byte by byte.
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept;
};

/// What a SegmentTables build reads: n, the two error rates, the
/// planning law (laws that reduce to the exponential build share a key),
/// the chain weights and the guaranteed-verification stream.
/// Checkpoint/recovery costs, V and the recall are read per solve, so
/// jobs differing only there share one table.
CacheKey table_key(const chain::TaskChain& chain,
                   const platform::CostModel& costs);

/// Every input `algorithm`'s DP reads: the table key's material plus the
/// checkpoint/recovery cost streams, and for kADMV (the one engine that
/// reads them) V and the recall.
CacheKey exact_key(Algorithm algorithm, const chain::TaskChain& chain,
                   const platform::CostModel& costs);

/// (algorithm, n, weights): the plan cache's near-miss candidate index.
CacheKey shape_key(Algorithm algorithm, const chain::TaskChain& chain);

}  // namespace chainckpt::core
