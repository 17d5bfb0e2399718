// Loopback round-trip battery: every algorithm class solved through
// WireClient -> TCP -> WireServer -> SolverService must be BITWISE
// identical to the same job solved in-process -- the end-to-end proof of
// the protocol's bit-exact serialization discipline (net/payload.hpp).
// Also pins the submit-reply semantics: plan-cache hits stay bitwise
// stable, non-retryable rejections round-trip their RejectReason, and a
// full admission queue answers kRetryAfter (backpressure, not failure).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "chain/patterns.hpp"
#include "core/batch_solver.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "service/solver_service.hpp"
#include "../service/slab_gate.hpp"

namespace chainckpt::net {
namespace {

WireClient::Options client_options(std::uint16_t port,
                                   std::uint64_t tenant = 1) {
  WireClient::Options options;
  options.port = port;
  options.tenant = tenant;
  return options;
}

/// Sends a body-less frame (kPoll, kCancel) for `request_id` past the
/// client's request/reply layer, so the test reads the replies raw.
void send_bare(WireClient& client, FrameType type, std::uint64_t request_id) {
  FrameHeader header;
  header.type = type;
  header.tenant_id = 1;
  header.request_id = request_id;
  client.send_frame(header, {});
}

struct Row {
  core::Algorithm algorithm;
  std::size_t n;
};

/// All algorithms at n = 24; everything but ADMV (O(n^6)) at n = 100;
/// the cheap classes at n = 400.  The two big two-level rows ride the
/// slow gate so plain tier-1 stays fast.
std::vector<Row> coverage_rows() {
  std::vector<Row> rows;
  for (const core::Algorithm algorithm :
       {core::Algorithm::kAD, core::Algorithm::kADVstar,
        core::Algorithm::kADMVstar, core::Algorithm::kADMV,
        core::Algorithm::kPeriodic, core::Algorithm::kDaly}) {
    rows.push_back({algorithm, 24});
  }
  for (const core::Algorithm algorithm :
       {core::Algorithm::kAD, core::Algorithm::kADVstar,
        core::Algorithm::kADMVstar, core::Algorithm::kPeriodic,
        core::Algorithm::kDaly}) {
    rows.push_back({algorithm, 100});
  }
  for (const core::Algorithm algorithm :
       {core::Algorithm::kAD, core::Algorithm::kADVstar,
        core::Algorithm::kPeriodic, core::Algorithm::kDaly}) {
    rows.push_back({algorithm, 400});
  }
  if (std::getenv("CHAINCKPT_SLOW_TESTS") != nullptr) {
    rows.push_back({core::Algorithm::kADMVstar, 400});
    rows.push_back({core::Algorithm::kADMV, 100});
  }
  return rows;
}

TEST(WireRoundtrip, EveryAlgorithmBitwiseIdenticalToInProcessSolve) {
  // A non-default max_n that every row below still fits: kWelcome must
  // advertise the limit the service enforces.
  service::ServiceOptions options;
  options.solver.max_n = 512;
  service::SolverService svc(options);
  WireServer server(svc);
  server.start();
  WireClient client(client_options(server.port()));
  const WelcomePayload welcome = client.hello();
  EXPECT_EQ(welcome.version, kProtocolVersion);
  EXPECT_EQ(welcome.max_n, 512u);

  core::BatchSolver reference;
  const platform::CostModel hera{platform::hera()};
  const platform::CostModel atlas{platform::atlas()};

  std::uint64_t request_id = 1;
  for (const Row& row : coverage_rows()) {
    SCOPED_TRACE(core::to_string(row.algorithm) + "/n=" +
                 std::to_string(row.n));
    core::BatchJob job{row.algorithm,
                       chain::make_uniform(row.n, 25000.0),
                       row.n % 2 == 0 ? hera : atlas};
    const core::OptimizationResult expected = reference.solve_job(job);

    service::JobRequest request;
    request.work = job;
    const SubmitOutcome outcome =
        client.submit(request, request_id, /*stream=*/true);
    ASSERT_FALSE(outcome.retry);
    ASSERT_NE(outcome.status.state, service::JobState::kRejected)
        << outcome.status.error;
    const service::JobStatus status = client.wait_result(request_id);
    ASSERT_EQ(status.state, service::JobState::kSucceeded)
        << status.error;
    // Bitwise: EXPECT_EQ on doubles is exact equality, not a tolerance.
    EXPECT_EQ(status.result.expected_makespan, expected.expected_makespan);
    EXPECT_TRUE(status.result.plan == expected.plan);
    EXPECT_EQ(status.result.plan.size(), row.n);
    EXPECT_EQ(status.tenant, 1u);
    ++request_id;
  }

  client.goodbye();
  server.stop();
}

TEST(WireRoundtrip, PerPositionCostModelAndWeibullLawSurviveTheWire) {
  service::SolverService svc;
  WireServer server(svc);
  server.start();
  WireClient client(client_options(server.port()));

  // Non-uniform model with EMPTY recovery streams: the decoder must
  // preserve the "empty = mirror the checkpoint cost" convention, not
  // materialize today's mirrored values.
  const std::size_t n = 60;
  const platform::Platform hera = platform::hera();
  std::vector<double> c_disk(n), c_mem(n), v_guar(n), v_part(n);
  for (std::size_t i = 0; i < n; ++i) {
    c_disk[i] = hera.c_disk * (1.0 + 0.01 * static_cast<double>(i));
    c_mem[i] = hera.c_mem * (1.0 + 0.02 * static_cast<double>(i));
    v_guar[i] = hera.v_guaranteed;
    v_part[i] = hera.v_partial;
  }
  platform::CostModel costs(hera, c_disk, c_mem, v_guar, v_part);
  platform::PlanningLaw law;
  law.law = platform::FailureLaw::kWeibull;
  law.weibull_shape = 0.7;
  costs.set_planning_law(law);

  core::BatchJob job{core::Algorithm::kADMVstar,
                     chain::make_decrease(n, 25000.0), costs};
  core::BatchSolver reference;
  const core::OptimizationResult expected = reference.solve_job(job);

  service::JobRequest request;
  request.work = job;
  const SubmitOutcome outcome = client.submit(request, 7, /*stream=*/true);
  ASSERT_FALSE(outcome.retry);
  const service::JobStatus status = client.wait_result(7);
  ASSERT_EQ(status.state, service::JobState::kSucceeded) << status.error;
  EXPECT_EQ(status.result.expected_makespan, expected.expected_makespan);
  EXPECT_TRUE(status.result.plan == expected.plan);

  server.stop();
}

TEST(WireRoundtrip, PlanCacheHitsServeBitwiseIdenticalResults) {
  service::SolverService svc;
  WireServer server(svc);
  server.start();
  WireClient client(client_options(server.port()));

  core::BatchJob job{core::Algorithm::kADVstar,
                     chain::make_uniform(80, 25000.0),
                     platform::CostModel{platform::hera()}};
  service::JobRequest request;
  request.work = job;
  request.options.cache_epsilon = 0.0;  // exact hits only

  ASSERT_FALSE(client.submit(request, 1, true).retry);
  const service::JobStatus first = client.wait_result(1);
  ASSERT_EQ(first.state, service::JobState::kSucceeded);

  ASSERT_FALSE(client.submit(request, 2, true).retry);
  const service::JobStatus second = client.wait_result(2);
  ASSERT_EQ(second.state, service::JobState::kSucceeded);

  EXPECT_EQ(first.result.expected_makespan, second.result.expected_makespan);
  EXPECT_TRUE(first.result.plan == second.result.plan);

  // The second solve was served by the plan cache; the JSON stats frame
  // reports it, proving cache-hit results flow through the wire too.
  const std::string stats = client.stats_json();
  EXPECT_NE(stats.find("\"plan_cache\""), std::string::npos);
  EXPECT_EQ(stats.find("\"exact_hits\":0,"), std::string::npos) << stats;

  server.stop();
}

TEST(WireRoundtrip, NonRetryableRejectionRoundTripsItsReason) {
  service::ServiceOptions options;
  options.admission.max_job_units = 0.001;  // everything is over the cap
  service::SolverService svc(options);
  WireServer server(svc);
  server.start();
  WireClient client(client_options(server.port()));

  service::JobRequest request;
  request.work = core::BatchJob{core::Algorithm::kADMVstar,
                                chain::make_uniform(100, 25000.0),
                                platform::CostModel{platform::hera()}};
  const SubmitOutcome outcome = client.submit(request, 1);
  ASSERT_FALSE(outcome.retry);  // a cap rejection is final, not backpressure
  EXPECT_EQ(outcome.status.state, service::JobState::kRejected);
  EXPECT_EQ(outcome.status.reject_reason, service::RejectReason::kPerJobCap);
  EXPECT_FALSE(outcome.status.error.empty());

  // The rejected request id stays pollable on this connection.
  const service::JobStatus polled = client.poll(1);
  EXPECT_EQ(polled.state, service::JobState::kRejected);
  EXPECT_EQ(polled.reject_reason, service::RejectReason::kPerJobCap);

  server.stop();
}

TEST(WireRoundtrip, QueueFullAnswersRetryAfterAndRefundsTheQuota) {
  service::ServiceOptions options;
  options.workers = 1;
  options.admission.queue_capacity = 1;
  service::SolverService svc(options);
  WireServerOptions server_options;
  server_options.queue_full_retry_ms = 123;
  WireServer server(svc, server_options);
  server.start();
  WireClient client(client_options(server.port()));

  service::JobRequest request;
  request.work = core::BatchJob{core::Algorithm::kADMVstar,
                                chain::make_uniform(140, 25000.0),
                                platform::CostModel{platform::hera()}};

  // Flood: worker busy with the first, queue holds the second, the rest
  // bounce with kQueueFull backpressure.
  bool saw_retry = false;
  RetryAfterPayload retry_info;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const SubmitOutcome outcome = client.submit(request, id);
    if (outcome.retry) {
      saw_retry = true;
      retry_info = outcome.retry_info;
      break;
    }
  }
  ASSERT_TRUE(saw_retry);
  EXPECT_EQ(retry_info.reason, service::RejectReason::kQueueFull);
  EXPECT_EQ(retry_info.retry_after_ms, 123u);

  // Queue-full must refund: charges equal refunds + live submissions.
  const auto tenant_stats = server.tenant_stats();
  const auto it = tenant_stats.find(1);
  ASSERT_NE(it, tenant_stats.end());
  EXPECT_GE(it->second.refunded, 1u);

  const WireServerStats stats = server.stats();
  EXPECT_GE(stats.backpressured, 1u);
  EXPECT_EQ(stats.throttled, 0u);  // default quota is unlimited

  server.stop();
}

TEST(WireRoundtrip, CancelReachesQueuedJobsOverTheWire) {
  service::ServiceOptions options;
  options.workers = 1;
  service::SolverService svc(options);
  WireServer server(svc);
  server.start();
  WireClient client(client_options(server.port()));

  service::JobRequest request;
  request.work = core::BatchJob{core::Algorithm::kADMVstar,
                                chain::make_uniform(120, 25000.0),
                                platform::CostModel{platform::hera()}};
  // Saturate the single worker, then cancel a queued follower.
  ASSERT_FALSE(client.submit(request, 1).retry);
  ASSERT_FALSE(client.submit(request, 2).retry);
  const bool cancelled = client.cancel(2);
  EXPECT_TRUE(cancelled);
  const service::JobStatus status = client.poll(2);
  EXPECT_TRUE(status.state == service::JobState::kCancelled ||
              status.state == service::JobState::kRunning)
      << service::to_string(status.state);

  server.stop();
}

TEST(WireRoundtrip, FinishedRequestsRetireAndTheirIdsCanBeReused) {
  // A request leaves the edge once the frame carrying its terminal status
  // is queued -- the streamed kResult, or else a terminal kStatus poll
  // reply -- so one endless connection holds only unfinished requests.
  service::SolverService svc;
  WireServer server(svc);
  server.start();
  WireClient client(client_options(server.port()));

  // Drifting rates: every request brings a new table and plan.
  const auto job_for = [](std::uint64_t i) {
    platform::Platform p = platform::hera();
    p.lambda_f *= 1.0 + 1e-3 * static_cast<double>(i);
    p.lambda_s *= 1.0 + 2e-3 * static_cast<double>(i);
    return core::BatchJob{core::Algorithm::kADVstar,
                          chain::make_uniform(8 + i % 5, 25000.0),
                          platform::CostModel{p}};
  };
  const auto expect_standalone = [](const service::JobStatus& status,
                                    const core::BatchJob& job) {
    ASSERT_EQ(status.state, service::JobState::kSucceeded) << status.error;
    const core::OptimizationResult want =
        core::optimize(job.algorithm, job.chain, job.costs);
    EXPECT_EQ(status.result.expected_makespan, want.expected_makespan);
    EXPECT_TRUE(status.result.plan == want.plan);
  };
  const auto expect_unknown = [](auto&& frame) {
    try {
      frame();
      ADD_FAILURE() << "expected kUnknownRequest";
    } catch (const WireClientError& error) {
      EXPECT_EQ(error.code(), WireError::kUnknownRequest) << error.what();
    }
  };

  constexpr std::uint64_t kSubmits = 300;
  for (std::uint64_t id = 1; id <= kSubmits; ++id) {
    service::JobRequest request;
    request.work = job_for(id);
    ASSERT_FALSE(client.submit(request, id, /*stream=*/true).retry);
    expect_standalone(client.wait_result(id), request.work);
  }
  // Every finished id is gone: polls and cancels answer kUnknownRequest.
  for (std::uint64_t id = 1; id <= kSubmits; ++id) {
    expect_unknown([&] { client.poll(id); });
  }
  expect_unknown([&] { client.cancel(1); });

  // A reused id is accepted and streams its own result.
  service::JobRequest reuse;
  reuse.work = job_for(kSubmits + 1);
  const SubmitOutcome outcome = client.submit(reuse, 1, /*stream=*/true);
  ASSERT_FALSE(outcome.retry);
  EXPECT_NE(outcome.status.state, service::JobState::kRejected);
  expect_standalone(client.wait_result(1), reuse.work);

  // An unstreamed request retires with the poll reply that first carries
  // its terminal status.
  reuse.work = job_for(kSubmits + 2);
  ASSERT_FALSE(client.submit(reuse, 2).retry);
  service::JobStatus polled = client.poll(2);
  while (!service::is_terminal(polled.state)) polled = client.poll(2);
  expect_standalone(polled, reuse.work);
  expect_unknown([&] { client.poll(2); });

  EXPECT_EQ(server.stats().results_streamed, kSubmits + 1);
  server.stop();
}

TEST(WireRoundtrip, PollAfterTheStreamedResultAnswersUnknownRequest) {
  // The kResult retires its request, so a poll sent after it answers
  // kUnknownRequest.  The client reads the kResult on the way to that
  // reply and keeps it for wait_result(): a kResult is never the reply
  // to a poll.
  service::SolverService svc;
  WireServer server(svc);
  server.start();
  WireClient client(client_options(server.port()));

  service::JobRequest request;
  request.work = core::BatchJob{core::Algorithm::kAD,
                                chain::make_uniform(24, 25000.0),
                                platform::CostModel{platform::hera()}};
  ASSERT_FALSE(client.submit(request, 1, /*stream=*/true).retry);
  for (int i = 0; i < 60000 && server.stats().results_streamed == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().results_streamed, 1u);  // the kResult is queued

  // Any other outcome may have consumed the kResult: stop before
  // wait_result() could block on it.
  try {
    client.poll(1);
    FAIL() << "expected kUnknownRequest";
  } catch (const WireClientError& error) {
    ASSERT_EQ(error.code(), WireError::kUnknownRequest) << error.what();
  }
  const service::JobStatus status = client.wait_result(1);
  EXPECT_EQ(status.state, service::JobState::kSucceeded) << status.error;
  EXPECT_EQ(status.result.expected_makespan,
            core::optimize(request.work.algorithm, request.work.chain,
                           request.work.costs)
                .expected_makespan);

  server.stop();
}

TEST(WireRoundtrip, CancelAckPrecedesTheCancelledJobsOnlyResult) {
  // docs/PROTOCOL.md: a kCancelAck never follows its own request's
  // kResult.  Cancelling a queued job finishes it on the spot, yet the
  // kResult goes out after the ack -- and only once.
  service::ServiceOptions options;
  options.workers = 1;
  service::SolverService svc(options);
  WireServer server(svc);
  server.start();
  WireClient client(client_options(server.port()));

  // The gate parks the unstreamed blocker after its first slab commit,
  // pinning the single worker, so the streamed job stays queued.
  SlabGate gate(1);
  service::JobRequest blocker;
  blocker.work = core::BatchJob{core::Algorithm::kADMVstar,
                                chain::make_uniform(60, 25000.0),
                                platform::CostModel{platform::hera()}};
  ASSERT_FALSE(client.submit(blocker, 1).retry);
  ASSERT_TRUE(gate.wait_parked(1));
  service::JobRequest queued;
  queued.work = core::BatchJob{core::Algorithm::kAD,
                               chain::make_uniform(24, 25000.0),
                               platform::CostModel{platform::hera()}};
  const SubmitOutcome outcome = client.submit(queued, 2, /*stream=*/true);
  ASSERT_FALSE(outcome.retry);
  ASSERT_EQ(outcome.status.state, service::JobState::kQueued);

  // No other frame is in flight: the next two are the cancel's.
  send_bare(client, FrameType::kCancel, 2);
  const ClientFrame ack = client.read_frame();
  ASSERT_EQ(ack.header.type, FrameType::kCancelAck);
  EXPECT_EQ(ack.header.request_id, 2u);
  bool cancelled = false;
  ASSERT_TRUE(
      decode_cancel_ack(ack.payload.data(), ack.payload.size(), cancelled));
  EXPECT_TRUE(cancelled);
  const ClientFrame result = client.read_frame();
  ASSERT_EQ(result.header.type, FrameType::kResult);
  EXPECT_EQ(result.header.request_id, 2u);
  service::JobStatus status;
  ASSERT_TRUE(decode_job_status(result.payload.data(), result.payload.size(),
                                status));
  EXPECT_EQ(status.state, service::JobState::kCancelled);

  // The kResult retired the request: the next frame for id 2 answers a
  // poll with kUnknownRequest, so no second kResult was queued.
  send_bare(client, FrameType::kPoll, 2);
  const ClientFrame unknown = client.read_frame();
  ASSERT_EQ(unknown.header.type, FrameType::kError);
  EXPECT_EQ(unknown.header.request_id, 2u);
  ErrorPayload error;
  ASSERT_TRUE(
      decode_error(unknown.payload.data(), unknown.payload.size(), error));
  EXPECT_EQ(error.code, WireError::kUnknownRequest);

  gate.release();
  server.stop();
}

}  // namespace
}  // namespace chainckpt::net
