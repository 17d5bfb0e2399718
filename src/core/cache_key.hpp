// Bit-exact keys for the solver's three stores: core::BatchSolver's
// coefficient-table cache and retained-checkpoint store, and
// core::PlanCache.  Each store keys its contents by exactly the inputs
// those contents read, as raw bit patterns, so a hit is correct by
// construction and requests differing only in unread inputs share an
// entry.  Bitwise comparison (not double ==) keeps hash and equality
// consistent for every value, -0.0 and NaN included.
#pragma once

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

/// FNV-1a over the key words, byte by byte.
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept;
};

/// What a WeightTable + SegmentTables build reads: n, the two error
/// rates, the planning law (laws that reduce to the exponential build
/// share a key), the chain weights and the guaranteed-verification
/// stream.  Checkpoint/recovery costs, V and the recall are read per
/// solve, so jobs differing only there share one table pair.
CacheKey table_key(const chain::TaskChain& chain,
                   const platform::CostModel& costs);

/// True when two table keys cover the same chain weights: the test for a
/// patch donor.
bool same_chain_weights(const CacheKey& a, const CacheKey& b) noexcept;

/// Every input `algorithm`'s DP reads: the table key's material plus the
/// checkpoint/recovery cost streams, and for kADMV (the one engine that
/// reads them) V and the recall.
CacheKey exact_key(Algorithm algorithm, const chain::TaskChain& chain,
                   const platform::CostModel& costs);

/// (algorithm, n, weights): the plan cache's near-miss candidate index.
CacheKey shape_key(Algorithm algorithm, const chain::TaskChain& chain);

}  // namespace chainckpt::core
