// The workload generators.  Every draw comes from one Xoshiro256 seeded
// with --seed, so a seed names one byte-identical request stream.
#include <cmath>
#include <utility>

#include "chain/patterns.hpp"
#include "common.hpp"
#include "net/payload.hpp"
#include "platform/registry.hpp"
#include "util/rng.hpp"

namespace planbench {
namespace {

constexpr double kTotalWeight = 25000.0;  // the paper's W (seconds)

/// `count` sizes evenly spaced over [lo, hi].  Solve cost is a function
/// of n, so sizes sit on a fixed grid: a seed changes weights, platforms
/// and drift (and paper_sweep's order), never the size mix a run is timed
/// on.
std::vector<std::size_t> size_grid(std::size_t lo, std::size_t hi,
                                   std::size_t count) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(lo + (hi - lo) * i / (count - 1));
  }
  return out;
}

template <typename T>
void shuffle(std::vector<T>& items, util::Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng() % i]);
  }
}

/// A Table I platform with both error rates scaled up 10-40x, so plans
/// over W = 25000 s carry a few checkpoints and verifications.
platform::Platform stressed_platform(util::Xoshiro256& rng) {
  const std::vector<platform::Platform> table = platform::table1_platforms();
  platform::Platform p = table[rng() % table.size()];
  const double scale = 10.0 * std::pow(4.0, rng.uniform01());
  p.lambda_f *= scale;
  p.lambda_s *= scale;
  return p;
}

Variant make_variant(core::Algorithm algorithm, chain::TaskChain chain,
                     const platform::Platform& platform,
                     double cache_epsilon = -1.0) {
  Variant v;
  v.request.work = core::BatchJob{algorithm, std::move(chain),
                                  platform::CostModel{platform}};
  v.request.options.cache_epsilon = cache_epsilon;
  return v;
}

// ------------------------------------------------------------ paper_sweep
// Figures 5-7: n = 1..50 x Table I x {uniform, decrease, highlow} x
// {ADV*, ADMV*, ADMV}.  One slice per (platform, pattern) is one
// BatchSolver::solve call; the seed permutes slice and job order.
void make_paper_sweep(Stream& s, util::Xoshiro256& rng) {
  const std::vector<platform::Platform> platforms =
      platform::table1_platforms();
  const chain::Pattern patterns[] = {chain::Pattern::kUniform,
                                     chain::Pattern::kDecrease,
                                     chain::Pattern::kHighLow};
  for (const platform::Platform& p : platforms) {
    for (const chain::Pattern pattern : patterns) {
      std::vector<std::uint32_t> slice;
      for (std::size_t n = 1; n <= 50; ++n) {
        for (const core::Algorithm algorithm : core::paper_algorithms()) {
          slice.push_back(static_cast<std::uint32_t>(s.variants.size()));
          s.variants.push_back(make_variant(
              algorithm, chain::make_pattern(pattern, n, kTotalWeight), p));
        }
      }
      shuffle(slice, rng);
      s.slices.push_back(std::move(slice));
    }
  }
  shuffle(s.slices, rng);
  for (const auto& slice : s.slices) {
    s.order.insert(s.order.end(), slice.begin(), slice.end());
  }
  s.warmup = s.slices.front();
}

// ------------------------------------------------------------- wire_heavy
// A round holds 15 fresh chains (i.i.d. random weights, so plan-cache
// misses with cold tables): the five grid sizes of ADMV* n in [200, 300],
// ADV* n in [400, 800] and ADMV n in [40, 60], interleaved in one fixed
// order.  Six of them are re-submitted right after their first send, as
// the drift slice:
//   - ADMV n = 45 and 55 verbatim (exact hits);
//   - ADMV* n = 200 and 300 with cache_epsilon 0.05 and both rates and
//     all checkpoint / recovery costs up by at most 0.5 % (epsilon-hits:
//     a PlanEvaluator re-score instead of a solve);
//   - ADV* n = 500 and 700 with cache_epsilon 0.05 and both rates x
//     1.7-2.5 or / 2.2-3.0, beyond the 0.5 certificate radii (rejection,
//     then a re-solve on tables patched from the first send's).
// Sizes, order and slice are the same in every round and every seed, so
// every run has one cost mix and one sequence of table-cache fills and
// evictions (which sets peak RSS).  Runs send whole rounds only, and the
// 21 cost levels of a round keep p50 and p75 inside a level, not between
// two.
constexpr double kDriftEpsilon = 0.05;

enum class Drift { kNone, kRepeat, kSmall, kFar };

Variant drifted(const Variant& base, Drift drift, util::Xoshiro256& rng) {
  platform::Platform p = base.request.work.costs.platform();
  if (drift == Drift::kSmall) {
    p.lambda_f *= 1.0 + 0.005 * rng.uniform01();
    p.lambda_s *= 1.0 + 0.005 * rng.uniform01();
    const double cost = 1.0 + 0.005 * rng.uniform01();
    p.c_disk *= cost;
    p.c_mem *= cost;
    p.r_disk *= cost;
    p.r_mem *= cost;
  } else {
    const double factor = rng() % 2 == 0
                              ? 1.7 + 0.8 * rng.uniform01()
                              : 1.0 / (2.2 + 0.8 * rng.uniform01());
    p.lambda_f *= factor;
    p.lambda_s *= factor;
  }
  return make_variant(base.request.work.algorithm, base.request.work.chain, p,
                      kDriftEpsilon);
}

void make_wire_heavy(Stream& s, util::Xoshiro256& rng, double seconds) {
  struct Class {
    core::Algorithm algorithm;
    std::size_t lo, hi;
    Drift drift[5];  // per grid size
  };
  constexpr Drift o = Drift::kNone;
  const Class classes[] = {
      {core::Algorithm::kADMVstar, 200, 300,
       {Drift::kSmall, o, o, o, Drift::kSmall}},
      {core::Algorithm::kADVstar, 400, 800, {o, Drift::kFar, o, Drift::kFar, o}},
      {core::Algorithm::kADMV, 40, 60, {o, Drift::kRepeat, o, Drift::kRepeat, o}},
  };
  // Warm-up: per class, one largest job per service worker (boot() sends
  // them as one batch), so every worker's grow-only solver arena reaches
  // its steady-state size before timing (otherwise peak RSS depends on
  // which workers happened to draw the largest jobs).
  for (const Class& c : classes) {
    for (std::size_t w = 0; w < kServiceWorkers; ++w) {
      s.warmup.push_back(static_cast<std::uint32_t>(s.variants.size()));
      s.variants.push_back(make_variant(
          c.algorithm, chain::make_random(c.hi, kTotalWeight, rng),
          stressed_platform(rng)));
    }
  }
  constexpr std::size_t kSizesPerClass = 5;
  s.round = 3 * kSizesPerClass + 6;
  const std::size_t rounds =
      static_cast<std::size_t>(std::ceil(seconds * 2.0)) + 4;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < kSizesPerClass; ++i) {
      for (const Class& c : classes) {
        const std::uint32_t id = static_cast<std::uint32_t>(s.variants.size());
        s.variants.push_back(make_variant(
            c.algorithm,
            chain::make_random(size_grid(c.lo, c.hi, kSizesPerClass)[i],
                               kTotalWeight, rng),
            stressed_platform(rng)));
        s.order.push_back(id);
        const Drift drift = c.drift[i];
        if (drift == Drift::kNone) continue;
        if (drift == Drift::kRepeat) {
          s.order.push_back(id);
          continue;
        }
        Variant v = drifted(s.variants[id], drift, rng);
        s.order.push_back(static_cast<std::uint32_t>(s.variants.size()));
        s.variants.push_back(std::move(v));
      }
    }
  }
}

}  // namespace

const char* to_string(Workload workload) noexcept {
  switch (workload) {
    case Workload::kPaperSweep: return "paper_sweep";
    case Workload::kWireHeavy: return "wire_heavy";
  }
  return "?";
}

bool parse_workload(const std::string& text, Workload& out) noexcept {
  for (const Workload w : {Workload::kPaperSweep, Workload::kWireHeavy}) {
    if (text == to_string(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

service::ServiceOptions service_options() {
  service::ServiceOptions options;
  options.workers = kServiceWorkers;
  options.solver = batch_options();
  return options;
}

core::BatchOptions batch_options() {
  core::BatchOptions options;
  options.cache_budget_bytes = kTableCacheBudgetBytes;
  return options;
}

Stream make_stream(Workload workload, std::uint64_t seed, double seconds) {
  Stream s;
  s.workload = workload;
  util::Xoshiro256 rng(seed);
  switch (workload) {
    case Workload::kPaperSweep: make_paper_sweep(s, rng); break;
    case Workload::kWireHeavy: make_wire_heavy(s, rng, seconds); break;
  }
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const Variant& v : s.variants) {
    const std::vector<std::uint8_t> bytes = net::encode_job_request(v.request);
    h = fnv1a(bytes.data(), bytes.size(), h);
  }
  h = fnv1a(s.warmup.data(), s.warmup.size() * sizeof(std::uint32_t), h);
  h = fnv1a(s.order.data(), s.order.size() * sizeof(std::uint32_t), h);
  s.digest = h;
  return s;
}

core::BatchJob probe_job(Workload workload, std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0x9b0be5ULL);
  const bool heavy = workload == Workload::kWireHeavy;
  const core::Algorithm algorithm =
      heavy ? core::Algorithm::kADMVstar : core::Algorithm::kADMV;
  const std::size_t n = heavy ? 250 : 50;
  return core::BatchJob{algorithm, chain::make_random(n, kTotalWeight, rng),
                        platform::CostModel{stressed_platform(rng)}};
}

}  // namespace planbench
