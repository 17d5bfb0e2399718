// The live run: closed-loop wire traffic against an in-process WireServer
// over loopback (wire_heavy), or BatchSolver::solve over the paper grid.
#include <algorithm>

#include "engines.hpp"
#include "net/payload.hpp"

namespace planbench {
namespace {

constexpr std::uint64_t kTenant = 1;

net::FrameHeader submit_header(std::uint64_t tenant, std::uint64_t id) {
  net::FrameHeader header;
  header.type = net::FrameType::kSubmit;
  header.flags = net::kFlagStreamResult;
  header.tenant_id = tenant;
  header.request_id = id;
  return header;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Outcome of one frame for a request in flight: still waiting, answered
/// (result handed to the checker), or refused.
enum class FrameOutcome { kPending, kAnswered, kRefused };

/// Interprets one received frame.  Only kResult ends a request well; a
/// rejecting kSubmitAck, kRetryAfter and kError end it as refused.
FrameOutcome interpret(const net::ClientFrame& frame, std::uint32_t variant,
                       const Checker& checker, Recorder& recorder) {
  service::JobStatus status;
  switch (frame.header.type) {
    case net::FrameType::kSubmitAck:
      if (!net::decode_job_status(frame.payload.data(), frame.payload.size(),
                                  status) ||
          status.state == service::JobState::kRejected) {
        return FrameOutcome::kRefused;
      }
      return FrameOutcome::kPending;
    case net::FrameType::kResult:
      if (!net::decode_job_status(frame.payload.data(), frame.payload.size(),
                                  status) ||
          status.state != service::JobState::kSucceeded) {
        return FrameOutcome::kRefused;
      }
      ++recorder.tally.answered;
      checker.accept(recorder, variant, status.result);
      return FrameOutcome::kAnswered;
    case net::FrameType::kRetryAfter:
    case net::FrameType::kError:
      return FrameOutcome::kRefused;
    default:
      return FrameOutcome::kPending;
  }
}

void record_latency(Recorder& recorder, bool traced, double ms) {
  (traced ? recorder.traced_latency_ms : recorder.latency_ms).push_back(ms);
}

// ------------------------------------------------------------ closed loop
// One connection keeps one streamed submit in flight and sends the next
// request as the previous one's result arrives.
LiveResult run_wire(Rig& rig, const Stream& stream, const Checker& checker,
                    double seconds, Tracer& tracer) {
  LiveResult out;
  out.recorders.push_back(std::make_unique<Recorder>());
  Recorder& recorder = *out.recorders.front();
  net::WireClient& client = *rig.client;
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop = after(t0, seconds);
  Clock::time_point last_done = t0;
  // A stream made of rounds finishes the round it is in: every run is
  // timed on whole rounds, so on the same size mix.
  const auto in_time = [&](std::size_t k) {
    return Clock::now() < stop || (stream.round > 0 && k % stream.round != 0);
  };
  try {
    for (std::size_t k = 0; k < stream.order.size() && in_time(k); ++k) {
      const std::uint32_t variant = stream.order[k];
      const bool traced = tracer.enabled() && traced_request(stream, k);
      const std::uint64_t id = ++rig.next_request_id;
      ++recorder.tally.attempted;
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan span(tracer, "net.client.send", k, traced);
        client.send_frame(
            submit_header(kTenant, id),
            net::encode_job_request(stream.variants[variant].request));
      }
      FrameOutcome outcome = FrameOutcome::kPending;
      Clock::time_point now;
      while (outcome == FrameOutcome::kPending) {
        const net::ClientFrame frame = client.read_frame();
        now = Clock::now();
        if (frame.header.request_id != id) continue;
        ScopedSpan span(tracer, "net.client.receive", k, traced);
        outcome = interpret(frame, variant, checker, recorder);
      }
      if (outcome == FrameOutcome::kRefused) {
        ++recorder.tally.refused;
        continue;
      }
      record_latency(recorder, traced, ms_between(start, now));
      last_done = now;
    }
  } catch (const std::exception&) {
    ++recorder.tally.unanswered;  // the connection died mid-request
  }
  out.elapsed_s = seconds_between(t0, last_done);
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.peak_rss_mib = peak_rss_mib();
  out.wire = rig.server->stats();
  out.service = rig.service->stats();
  rig.server->stop();
  return out;
}

LiveResult run_batch(Rig& rig, const Stream& stream, const Checker& checker,
                     double seconds, Tracer& tracer) {
  LiveResult out;
  out.recorders.push_back(std::make_unique<Recorder>());
  Recorder& recorder = *out.recorders.front();
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop = after(t0, seconds);
  Clock::time_point last_done = t0;
  std::uint64_t request = 0;
  while (Clock::now() < stop) {
    // One repetition of the grid on a fresh solver.
    core::BatchSolver solver(batch_options());
    for (std::size_t s = 0; s < rig.slices.size() && Clock::now() < stop;
         ++s) {
      const bool traced = tracer.enabled() && request % 2 == 0;
      const Clock::time_point start = Clock::now();
      std::vector<core::OptimizationResult> results;
      {
        ScopedSpan span(tracer, "batch.solve", request++, traced);
        results = solver.solve(rig.slices[s]);
      }
      last_done = Clock::now();
      record_latency(recorder, traced, ms_between(start, last_done));
      const std::vector<std::uint32_t>& ids = stream.slices[s];
      for (std::size_t j = 0; j < ids.size(); ++j) {
        ++recorder.tally.attempted;
        ++recorder.tally.answered;
        checker.accept(recorder, ids[j], results[j]);
      }
    }
  }
  out.elapsed_s = seconds_between(t0, last_done);
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.peak_rss_mib = peak_rss_mib();
  return out;
}

}  // namespace

Tally LiveResult::tally() const {
  Tally total;
  for (const auto& r : recorders) total += r->tally;
  return total;
}

std::vector<double> LiveResult::latencies_ms(bool traced) const {
  std::vector<double> all;
  for (const auto& r : recorders) {
    const auto& v = traced ? r->traced_latency_ms : r->latency_ms;
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

std::unique_ptr<Rig> boot(const Stream& stream) {
  auto rig = std::make_unique<Rig>();
  if (stream.workload == Workload::kPaperSweep) {
    for (const auto& slice : stream.slices) {
      std::vector<core::BatchJob> jobs;
      for (const std::uint32_t v : slice) {
        jobs.push_back(stream.variants[v].request.work);
      }
      rig->slices.push_back(std::move(jobs));
    }
    // Warm-up: the first slice on a throwaway solver starts the thread
    // team and sizes the arenas.
    core::BatchSolver solver(batch_options());
    const std::vector<core::OptimizationResult> results =
        solver.solve(rig->slices.front());
    rig->warmup.tally.attempted = rig->warmup.tally.answered = results.size();
    for (std::size_t j = 0; j < results.size(); ++j) {
      rig->warmup.pending.push_back({stream.warmup[j], results[j]});
    }
    return rig;
  }
  rig->service = std::make_unique<service::SolverService>(service_options());
  rig->server = std::make_unique<net::WireServer>(*rig->service);
  rig->server->start();
  net::WireClient::Options options;
  options.port = rig->server->port();
  options.tenant = kTenant;
  options.client_name = "perfbench";
  rig->client = std::make_unique<net::WireClient>(options);
  rig->client->hello();
  // Warm-up in batches of one job per service worker: each batch is
  // submitted at once, then collected, so every worker takes one.
  net::WireClient& client = *rig->client;
  rig->warmup.tally.attempted = stream.warmup.size();
  const std::size_t batch = kServiceWorkers;
  for (std::size_t first = 0; first < stream.warmup.size(); first += batch) {
    const std::size_t last = std::min(first + batch, stream.warmup.size());
    std::vector<std::uint64_t> ids;
    for (std::size_t i = first; i < last; ++i) {
      const std::uint64_t id = ++rig->next_request_id;
      const net::SubmitOutcome outcome = client.submit(
          stream.variants[stream.warmup[i]].request, id, /*stream=*/true);
      if (outcome.retry ||
          outcome.status.state == service::JobState::kRejected) {
        ++rig->warmup.tally.refused;
        ids.push_back(0);
        continue;
      }
      ids.push_back(id);
    }
    for (std::size_t i = first; i < last; ++i) {
      if (ids[i - first] == 0) continue;
      const service::JobStatus status = client.wait_result(ids[i - first]);
      if (status.state != service::JobState::kSucceeded) {
        ++rig->warmup.tally.refused;
        continue;
      }
      ++rig->warmup.tally.answered;
      rig->warmup.pending.push_back({stream.warmup[i], status.result});
    }
  }
  return rig;
}

LiveResult run_live(Rig& rig, const Stream& stream, const Checker& checker,
                    double seconds, Tracer& tracer) {
  return stream.workload == Workload::kPaperSweep
             ? run_batch(rig, stream, checker, seconds, tracer)
             : run_wire(rig, stream, checker, seconds, tracer);
}

}  // namespace planbench
