#include "core/optimizer.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "core/dp_partial.hpp"
#include "core/dp_single_level.hpp"
#include "core/dp_two_level.hpp"
#include "core/heuristics.hpp"

namespace chainckpt::core {

std::string to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kAD:
      return "AD";
    case Algorithm::kADVstar:
      return "ADV*";
    case Algorithm::kADMVstar:
      return "ADMV*";
    case Algorithm::kADMV:
      return "ADMV";
    case Algorithm::kPeriodic:
      return "Periodic";
    case Algorithm::kDaly:
      return "Daly";
  }
  throw std::invalid_argument("unknown algorithm enum value");
}

Algorithm algorithm_from_string(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "ad") return Algorithm::kAD;
  if (lower == "adv*" || lower == "adv") return Algorithm::kADVstar;
  if (lower == "admv*" || lower == "admv_star")
    return Algorithm::kADMVstar;
  if (lower == "admv") return Algorithm::kADMV;
  if (lower == "periodic") return Algorithm::kPeriodic;
  if (lower == "daly") return Algorithm::kDaly;
  throw std::invalid_argument("unknown algorithm: " + name);
}

OptimizationResult optimize(Algorithm algorithm,
                            const chain::TaskChain& chain,
                            const platform::CostModel& costs) {
  switch (algorithm) {
    case Algorithm::kAD:
    case Algorithm::kADVstar:
    case Algorithm::kADMVstar:
    case Algorithm::kADMV: {
      const DpContext ctx(chain, costs);
      return optimize(algorithm, ctx);
    }
    case Algorithm::kPeriodic:
      return optimize_periodic(chain, costs);
    case Algorithm::kDaly:
      return optimize_daly(chain, costs);
  }
  throw std::invalid_argument("unknown algorithm enum value");
}

OptimizationResult optimize(Algorithm algorithm, const DpContext& ctx) {
  switch (algorithm) {
    case Algorithm::kAD:
      return optimize_single_level(ctx,
                                   {.allow_extra_verifications = false});
    case Algorithm::kADVstar:
      return optimize_single_level(ctx);
    case Algorithm::kADMVstar:
      return optimize_two_level(ctx);
    case Algorithm::kADMV:
      return optimize_with_partial(ctx);
    case Algorithm::kPeriodic:
      return optimize_periodic(ctx.chain(), ctx.costs());
    case Algorithm::kDaly:
      return optimize_daly(ctx.chain(), ctx.costs());
  }
  throw std::invalid_argument("unknown algorithm enum value");
}

std::vector<Algorithm> paper_algorithms() {
  return {Algorithm::kADVstar, Algorithm::kADMVstar, Algorithm::kADMV};
}

}  // namespace chainckpt::core
