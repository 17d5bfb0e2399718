// Solver service: drive a mixed workload through the async
// service::SolverService the way a long-lived planning daemon would --
// submit a burst of priced jobs, poll and wait on handles, cancel one,
// let a deadline expire, watch the one LRU budget evict tables, and
// prove the async results are bit-identical to a synchronous
// core::BatchSolver run of the same jobs.
//
//   $ ./solver_service [--jobs 24] [--budget-mib 8]
//
// The submit/solve/verify skeleton below is the compile-checked source of
// the quickstart snippet in docs/SERVER.md.
#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "service/solver_service.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace chainckpt;
  util::CliParser cli;
  cli.add_option("jobs", "24", "jobs in the burst");
  cli.add_option("budget-mib", "8",
                 "one LRU budget over tables, checkpoints and plans (MiB)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text("solver_service: async SolverService demo");
    return 0;
  }
  const auto burst = static_cast<std::size_t>(cli.get_int("jobs"));
  const auto budget_mib = static_cast<std::size_t>(cli.get_int("budget-mib"));

  // 1. Configure the service: admission pricing with a concurrency
  //    budget, the one LRU byte budget (tables, checkpoints and plans
  //    together), and a completion callback counting terminal jobs.
  service::ServiceOptions options;
  options.admission.budget_units = 256.0;
  options.admission.max_job_units = service::price_units(
      core::Algorithm::kADMV, 64);  // reject pathological ADMV sizes
  options.solver.cache_budget_bytes = budget_mib * 1024 * 1024;
  service::SolverService svc(options);
  std::atomic<int> callbacks{0};
  svc.on_completion([&](const service::JobStatus&) { ++callbacks; });

  // 2. Submit a mixed burst: every handle returns immediately.
  std::vector<core::BatchJob> jobs;
  for (std::size_t i = 0; i < burst; ++i) {
    const auto& platforms = platform::table1_platforms();
    const platform::CostModel costs{platforms[i % platforms.size()]};
    switch (i % 4) {
      case 0:
        jobs.push_back({core::Algorithm::kADVstar,
                        chain::make_uniform(200 + 10 * (i % 5), 25000.0),
                        costs});
        break;
      case 1:
        jobs.push_back({core::Algorithm::kAD,
                        chain::make_decrease(150, 25000.0), costs});
        break;
      case 2:
        jobs.push_back({core::Algorithm::kADMVstar,
                        chain::make_highlow(60, 50000.0), costs});
        break;
      default:
        jobs.push_back({core::Algorithm::kADMV,
                        chain::make_uniform(25, 25000.0), costs});
        break;
    }
  }
  std::vector<service::JobHandle> handles;
  for (const auto& job : jobs) handles.push_back(svc.submit({job}));
  std::cout << "Submitted " << handles.size() << " jobs; first poll: "
            << service::to_string(svc.poll(handles.front()).state) << "\n";

  // 3. Exercise the control surface: cancel one job, expire another.
  const service::JobHandle cancelled = svc.submit(
      {{core::Algorithm::kADMVstar, chain::make_uniform(80, 25000.0),
        platform::CostModel{platform::hera()}}});
  svc.cancel(cancelled);
  const service::JobHandle expired =
      svc.submit({{core::Algorithm::kADVstar,
                   chain::make_uniform(300, 25000.0),
                   platform::CostModel{platform::atlas()}},
                  std::chrono::milliseconds(1)});

  // 4. Wait for every handle and tally terminal states.
  for (const auto& handle : handles) svc.wait(handle);
  std::cout << "cancel() -> " << service::to_string(svc.wait(cancelled).state)
            << ", 1ms deadline -> "
            << service::to_string(svc.wait(expired).state) << "\n";
  svc.drain();
  // wait()/drain() order on terminal states; each callback lands on its
  // worker just after, so give the last ones a bounded moment.
  const int expected_callbacks = static_cast<int>(handles.size()) + 2;
  for (int i = 0; i < 2000 && callbacks < expected_callbacks; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const service::ServiceStats stats = svc.stats();
  std::cout << "succeeded=" << stats.succeeded
            << " cancelled=" << stats.cancelled
            << " expired=" << stats.expired
            << " rejected=" << stats.rejected << " callbacks=" << callbacks
            << "\n";
  std::cout << "tables built=" << stats.solver.tables_built
            << " reused=" << stats.solver.tables_reused
            << " evicted=" << stats.solver.tables_evicted << " ("
            << stats.solver.evicted_bytes / (1024.0 * 1024.0)
            << " MiB); budgeted="
            << stats.solver.budgeted_bytes / (1024.0 * 1024.0) << " MiB\n";
  const auto est = svc.estimate(core::Algorithm::kADVstar, 300);
  std::cout << "calibrated ADV* n=300 estimate: " << est.cost_units
            << " units";
  if (est.seconds >= 0.0) std::cout << " ~" << est.seconds << "s";
  std::cout << "\n\n";

  // 5. The async results must be bit-identical to a synchronous
  //    BatchSolver run of the same job set.
  core::BatchSolver sync_solver;
  const auto sync = sync_solver.solve(jobs);
  bool identical = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const service::JobStatus status = svc.poll(handles[i]);
    identical = identical && status.state == service::JobState::kSucceeded &&
                status.result.expected_makespan ==
                    sync[i].expected_makespan &&
                status.result.plan == sync[i].plan;
  }
  std::cout << "Async vs sync BatchSolver: "
            << (identical ? "identical plans and objectives"
                          : "MISMATCH (bug!)")
            << "\n";
  return identical ? 0 : 1;
}
