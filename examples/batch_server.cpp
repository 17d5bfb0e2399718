// Batch server: drive a mixed multi-chain workload through one
// core::BatchSolver the way a long-lived planning service would -- solve a
// burst, report throughput and cache behavior, release the cached stores
// between bursts, and show that the next burst reproduces identical plans.
//
//   $ ./batch_server [--waves 4] [--serial]
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) {
  using namespace chainckpt;
  util::CliParser cli;
  cli.add_option("waves", "4", "request waves in the batch");
  cli.add_flag("serial", "solve on one thread instead of the worker pool");
  std::size_t waves = 0;
  try {
    cli.parse(argc, argv);
    const std::int64_t n = cli.get_int("waves");
    if (n < 0) throw std::invalid_argument("--waves must not be negative");
    waves = static_cast<std::size_t>(n);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text("batch_server: BatchSolver workload demo");
    return 0;
  }

  // 1. A request: many independent chains of different lengths, weight
  //    patterns, platforms, and algorithms.  Waves repeat the same chain
  //    shapes -- the traffic pattern the coefficient-table cache serves.
  std::vector<core::BatchJob> jobs;
  for (std::size_t w = 0; w < waves; ++w) {
    for (const auto& p : platform::table1_platforms()) {
      const platform::CostModel costs{p};
      jobs.push_back({core::Algorithm::kADVstar,
                      chain::make_uniform(300, 25000.0), costs});
      jobs.push_back({core::Algorithm::kAD,
                      chain::make_decrease(150, 25000.0), costs});
      jobs.push_back({core::Algorithm::kADMVstar,
                      chain::make_highlow(50, 50000.0), costs});
    }
    jobs.push_back({core::Algorithm::kADMV, chain::make_uniform(30, 25000.0),
                    platform::CostModel{platform::hera()}});
  }
  std::cout << "Batch: " << jobs.size() << " chains over "
            << platform::table1_platforms().size() << " platforms\n\n";

  // 2. Solve the burst through the shared work-queue.
  if (cli.get_flag("serial")) util::set_parallelism(1);
  core::BatchSolver solver;
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = solver.solve(jobs);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  std::cout << "Solved " << results.size() << " chains in " << seconds
            << "s (" << static_cast<double>(results.size()) / seconds
            << " chains/sec)\n";
  const core::BatchStats stats = solver.stats_snapshot();
  std::cout << "Tables built: " << stats.tables_built
            << ", reused: " << stats.tables_reused
            << ", budgeted: " << stats.budgeted_bytes / (1024.0 * 1024.0)
            << " MiB\n\n";

  // 3. Between bursts, a server gives the cached stores back.
  const std::size_t freed = solver.release_scratch();
  std::cout << "release_scratch() freed " << freed / (1024.0 * 1024.0)
            << " MiB\n";

  // 4. The next burst rebuilds on demand -- and reproduces every plan.
  const auto again = solver.solve(jobs);
  bool identical = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    identical = identical &&
                again[i].expected_makespan == results[i].expected_makespan &&
                again[i].plan == results[i].plan;
  }
  std::cout << "Re-solve after release: "
            << (identical ? "identical plans and objectives"
                          : "MISMATCH (bug!)")
            << '\n';
  return identical ? 0 : 1;
}
