// Soak of one endless wire connection (ctest label: stress): 50,000
// small streamed requests over a single WireServer connection, with
// drifting rates so new tables and plans keep arriving under a
// small budget.  Asserts that every result is bitwise the standalone
// core::optimize() result, that the solver's budgeted bytes stay within
// BatchOptions::cache_budget_bytes after every completion, and that
// sampled finished ids poll as kUnknownRequest (the edge retired them).
// Prints the process's peak RSS (VmHWM) for the record; RSS is not
// asserted, because the allocator may keep freed blocks.
//
//   CHAINCKPT_STRESS_TESTS=1 ctest --test-dir build -R net_edge_soak_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "chain/patterns.hpp"
#include "core/optimizer.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "service/solver_service.hpp"
#include "../service/stress_harness.hpp"

namespace chainckpt::net {
namespace {

constexpr std::uint64_t kRequests = 50000;
/// Streamed requests in flight on the connection.
constexpr std::uint64_t kWindow = 8;
/// Request ids cycle through this range, so every id is reused after the
/// edge retired its previous request.
constexpr std::uint64_t kIdRange = 4096;
/// Room for a handful of tables and plans at these sizes.
constexpr std::size_t kBudgetBytes = 256 * 1024;

/// Request i: a small DP job whose rates drift with i.  Every tenth
/// request repeats request i - 11 exactly -- finished by then, and recent
/// enough for the budget to keep its plan -- so exact plan-cache hits mix
/// in.
core::BatchJob job_for(std::uint64_t i) {
  if (i % 10 == 5 && i >= 11) i -= 11;
  static constexpr core::Algorithm kAlgorithms[] = {
      core::Algorithm::kAD, core::Algorithm::kADVstar,
      core::Algorithm::kADMVstar, core::Algorithm::kADVstar};
  const core::Algorithm algorithm = kAlgorithms[i % 4];
  const std::size_t n = 6 + i % 11;
  platform::Platform p = platform::table1_platforms()[i % 4];
  p.lambda_f *= 1.0 + 1e-4 * static_cast<double>(i % 997);
  p.lambda_s *= 1.0 + 1e-4 * static_cast<double>(i % 991);
  return {algorithm, chain::make_uniform(n, 25000.0),
          platform::CostModel{p}};
}

std::uint64_t request_id(std::uint64_t i) { return 1 + i % kIdRange; }

/// VmHWM of this process in KiB, 0 when /proc is unavailable.
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

TEST(EdgeSoak, OneConnectionStaysBoundedAndBitwise) {
  CHAINCKPT_REQUIRE_STRESS();
  service::ServiceOptions options;
  options.solver.cache_budget_bytes = kBudgetBytes;
  service::SolverService svc(options);
  WireServer server(svc);
  server.start();
  WireClient::Options client_options;
  client_options.port = server.port();
  client_options.tenant = 1;
  WireClient client(client_options);
  client.hello();

  std::size_t peak_budgeted = 0;
  std::uint64_t unknown_polls = 0;
  const auto finish = [&](std::uint64_t i) {
    const core::BatchJob job = job_for(i);
    const service::JobStatus status = client.wait_result(request_id(i));
    ASSERT_EQ(status.state, service::JobState::kSucceeded) << status.error;
    const core::OptimizationResult want =
        core::optimize(job.algorithm, job.chain, job.costs);
    ASSERT_EQ(status.result.expected_makespan, want.expected_makespan)
        << "request " << i;
    ASSERT_TRUE(status.result.plan == want.plan) << "request " << i;
    const std::size_t budgeted = svc.stats().solver.budgeted_bytes;
    ASSERT_LE(budgeted, kBudgetBytes) << "request " << i;
    peak_budgeted = std::max(peak_budgeted, budgeted);
    if (i % 101 == 0) {
      try {
        client.poll(request_id(i));
        ADD_FAILURE() << "finished request " << i << " still pollable";
      } catch (const WireClientError& error) {
        ASSERT_EQ(error.code(), WireError::kUnknownRequest) << error.what();
        ++unknown_polls;
      }
    }
  };

  for (std::uint64_t i = 0; i < kRequests; ++i) {
    service::JobRequest request;
    request.work = job_for(i);
    const SubmitOutcome outcome =
        client.submit(request, request_id(i), /*stream=*/true);
    ASSERT_FALSE(outcome.retry) << "request " << i;
    ASSERT_NE(outcome.status.state, service::JobState::kRejected)
        << outcome.status.error;
    if (i >= kWindow) finish(i - kWindow);
    if (testing::Test::HasFatalFailure()) return;
  }
  for (std::uint64_t i = kRequests - kWindow; i < kRequests; ++i) {
    finish(i);
    if (testing::Test::HasFatalFailure()) return;
  }

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.succeeded, kRequests);
  EXPECT_EQ(server.stats().results_streamed, kRequests);
  EXPECT_GT(unknown_polls, 0u);
  // The budget was exercised across kinds, and never broken.
  EXPECT_GT(stats.solver.tables_evicted, 0u);
  EXPECT_GT(stats.plan_cache.evictions, 0u);
  EXPECT_GT(stats.plan_cache.exact_hits, 0u);
  EXPECT_LE(stats.solver.budgeted_bytes, kBudgetBytes);
  EXPECT_EQ(stats.solver.warm_bound_violations, 0u);
  std::cout << "edge soak: " << kRequests << " requests, peak budgeted "
            << peak_budgeted << " of " << kBudgetBytes << " bytes; tables "
            << stats.solver.tables_built << " built, "
            << stats.solver.tables_evicted << " evicted; plans "
            << stats.plan_cache.exact_hits << " exact hits, "
            << stats.plan_cache.evictions << " evicted; peak RSS "
            << peak_rss_kib() << " KiB\n";
  client.goodbye();
  server.stop();
}

}  // namespace
}  // namespace chainckpt::net
