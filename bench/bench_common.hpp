// Seeded random-scenario generators shared by bench_perf_dp and the
// randomized test batteries.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chain/patterns.hpp"
#include "platform/cost_model.hpp"
#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace chainckpt::bench {

/// Master seed for every randomized benchmark scenario and for the
/// randomized-platform test batteries that reuse these generators.  All
/// randomness must be derived from it (directly or via
/// util::Xoshiro256::stream) so BENCH_*.json runs are reproducible
/// run-to-run and machine-to-machine; tests/bench/bench_common_test.cpp
/// pins the value and the generators' determinism.
inline constexpr std::uint64_t kBenchSeed = 0xB3C4C45EED2026ULL;

/// Draws a platform around the Table I regime: log-uniform error rates in
/// [1e-8.5, 1e-5.5] /s and uniform checkpoint/recovery/verification costs
/// spanning the Hera-to-Coastal range.  Purely a function of the RNG
/// state -- same stream, same platform.
inline platform::Platform random_platform(util::Xoshiro256& rng,
                                          std::string name = "Random") {
  platform::Platform p;
  p.name = std::move(name);
  p.nodes = 16 + static_cast<std::size_t>(rng() % 4096);
  p.lambda_f = std::pow(10.0, -8.5 + 3.0 * rng.uniform01());
  p.lambda_s = std::pow(10.0, -8.5 + 3.0 * rng.uniform01());
  p.c_disk = 100.0 + 1900.0 * rng.uniform01();
  p.c_mem = 5.0 + 95.0 * rng.uniform01();
  p.r_disk = p.c_disk * (0.5 + rng.uniform01());
  p.r_mem = p.c_mem * (0.5 + rng.uniform01());
  p.v_guaranteed = 5.0 + 55.0 * rng.uniform01();
  p.v_partial = p.v_guaranteed / (20.0 + 180.0 * rng.uniform01());
  p.recall = 0.5 + 0.45 * rng.uniform01();
  p.validate();
  return p;
}

/// Per-position extension of `base`: every post-task cost jittered by a
/// uniform factor in [0.25, 1.75] around the platform scalar.
inline platform::CostModel random_per_position_costs(
    const platform::Platform& base, std::size_t n, util::Xoshiro256& rng) {
  std::vector<double> c_disk(n), c_mem(n), v_g(n), v_p(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto jitter = [&rng] { return 0.25 + 1.5 * rng.uniform01(); };
    c_disk[i] = base.c_disk * jitter();
    c_mem[i] = base.c_mem * jitter();
    v_g[i] = base.v_guaranteed * jitter();
    v_p[i] = base.v_partial * jitter();
  }
  return platform::CostModel(base, std::move(c_disk), std::move(c_mem),
                             std::move(v_g), std::move(v_p));
}

}  // namespace chainckpt::bench
