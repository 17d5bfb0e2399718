#include "core/cache_key.hpp"

#include <cstring>

namespace chainckpt::core {

namespace {

/// Words ahead of the weights in every key push_rates_law_weights()
/// starts: n, both rates and two law words.
constexpr std::size_t kWeightsOffset = 5;

std::uint64_t to_bits(double value) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// n, both rates, the planning law (the build path it selects) and the
/// chain weights -- the material every key but the shape key starts with.
void push_rates_law_weights(std::vector<std::uint64_t>& bits,
                            const chain::TaskChain& chain,
                            const platform::CostModel& costs) {
  const std::size_t n = chain.size();
  bits.push_back(static_cast<std::uint64_t>(n));
  bits.push_back(to_bits(costs.lambda_f()));
  bits.push_back(to_bits(costs.lambda_s()));
  const platform::PlanningLaw& law = costs.planning_law();
  if (law.is_exponential()) {
    bits.push_back(0);
    bits.push_back(to_bits(1.0));
  } else {
    bits.push_back(static_cast<std::uint64_t>(law.law));
    bits.push_back(to_bits(law.weibull_shape));
  }
  for (std::size_t i = 1; i <= n; ++i) bits.push_back(to_bits(chain.weight(i)));
}

}  // namespace

std::size_t CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t word : key.bits) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (word >> shift) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<std::size_t>(h);
}

CacheKey table_key(const chain::TaskChain& chain,
                   const platform::CostModel& costs) {
  CacheKey key;
  const std::size_t n = chain.size();
  key.bits.reserve(kWeightsOffset + 2 * n);
  push_rates_law_weights(key.bits, chain, costs);
  for (std::size_t i = 1; i <= n; ++i) {
    key.bits.push_back(to_bits(costs.v_guaranteed_after(i)));
  }
  return key;
}

CacheKey exact_key(Algorithm algorithm, const chain::TaskChain& chain,
                   const platform::CostModel& costs) {
  CacheKey key;
  const std::size_t n = chain.size();
  const bool partial = algorithm == Algorithm::kADMV;
  key.bits.reserve(1 + kWeightsOffset + n * (partial ? 7 : 6) +
                   (partial ? 1 : 0));
  key.bits.push_back(static_cast<std::uint64_t>(algorithm));
  push_rates_law_weights(key.bits, chain, costs);
  for (std::size_t i = 1; i <= n; ++i) {
    key.bits.push_back(to_bits(costs.v_guaranteed_after(i)));
    key.bits.push_back(to_bits(costs.c_disk_after(i)));
    key.bits.push_back(to_bits(costs.c_mem_after(i)));
    key.bits.push_back(to_bits(costs.r_disk_after(i)));
    key.bits.push_back(to_bits(costs.r_mem_after(i)));
  }
  if (partial) {
    for (std::size_t i = 1; i <= n; ++i) {
      key.bits.push_back(to_bits(costs.v_partial_after(i)));
    }
    key.bits.push_back(to_bits(costs.recall()));
  }
  return key;
}

CacheKey shape_key(Algorithm algorithm, const chain::TaskChain& chain) {
  CacheKey key;
  const std::size_t n = chain.size();
  key.bits.reserve(2 + n);
  key.bits.push_back(static_cast<std::uint64_t>(algorithm));
  key.bits.push_back(static_cast<std::uint64_t>(n));
  for (std::size_t i = 1; i <= n; ++i) {
    key.bits.push_back(to_bits(chain.weight(i)));
  }
  return key;
}

}  // namespace chainckpt::core
