// The benchmark's two ways of driving the library: the live run (the
// end-to-end numbers) and the traced in-process replay (the per-layer
// numbers).
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "net/wire_client.hpp"
#include "net/wire_server.hpp"

namespace planbench {

/// What the live run talks to: a SolverService behind a WireServer on
/// loopback with one connected client (wire_heavy), or nothing but the
/// stream's prebuilt batch slices (paper_sweep, which builds a fresh
/// BatchSolver per repetition).
struct Rig {
  std::unique_ptr<service::SolverService> service;
  std::unique_ptr<net::WireServer> server;
  std::unique_ptr<net::WireClient> client;
  std::uint64_t next_request_id = 0;
  std::vector<std::vector<core::BatchJob>> slices;
  /// Warm-up results, parked for Checker::finish.
  Recorder warmup;
};

/// Boots the rig for `stream` and sends its warm-up requests.
std::unique_ptr<Rig> boot(const Stream& stream);

struct LiveResult {
  std::vector<std::unique_ptr<Recorder>> recorders;
  double elapsed_s = 0.0;      ///< start to the last completion
  double cpu_s = 0.0;          ///< process CPU over the same interval
  double peak_rss_mib = 0.0;   ///< peak over the timed phase
  /// Edge counters of the live server (wire workloads).
  net::WireServerStats wire;
  service::ServiceStats service;

  Tally tally() const;
  /// Latencies of the untraced (or, with `traced`, the traced) requests.
  std::vector<double> latencies_ms(bool traced = false) const;
};

/// Runs the timed phase for `seconds`.  With `tracer` enabled, the client
/// calls of every other request (traced_request) are wrapped in spans;
/// the traced-minus-untraced latency difference is the tracing overhead.
/// Stops the rig's server before returning.
LiveResult run_live(Rig& rig, const Stream& stream, const Checker& checker,
                    double seconds, Tracer& tracer);

/// Per-layer numbers of one traced replay, by the metric names of
/// perfbench/README.md; `service_latency_ms` is kept per request for the
/// reconciliation against the live run.
struct ReplayReport {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<double> service_latency_ms;
  std::vector<double> path_ms;  ///< per request: net + submit + solve_job
};

/// Replays the stream's first `count` requests through
/// the layers' public calls in-process, one span per call, then runs the
/// standalone parallelism probes.  Every result goes to `recorder`.
ReplayReport replay(const Stream& stream, std::size_t count,
                    const Checker& checker, Tracer& tracer,
                    std::uint64_t seed, Recorder& recorder);

}  // namespace planbench
