// Shared types of the plan-serving benchmark: the generated request
// stream, the correctness checker, the span tracer, and the small
// statistics helpers every workload reports through.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "service/solver_service.hpp"

namespace planbench {

using namespace chainckpt;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// ------------------------------------------------------------ workloads
enum class Workload { kPaperSweep, kWireHeavy };

const char* to_string(Workload workload) noexcept;
bool parse_workload(const std::string& text, Workload& out) noexcept;

/// One distinct parameter set.  Repeats in the stream share its index, so
/// the reference solve runs once per variant.
struct Variant {
  service::JobRequest request;
};

/// A workload's generated inputs: a pure function of (workload, seed,
/// seconds).  `digest` is FNV-1a over every variant's kSubmit payload
/// bytes and the request order.
struct Stream {
  Workload workload = Workload::kWireHeavy;
  std::vector<Variant> variants;
  /// Sent before timing starts (fills caches, starts the pools).
  std::vector<std::uint32_t> warmup;
  /// The timed request sequence (variant ids).  paper_sweep: every slice
  /// in solve order, concatenated.
  std::vector<std::uint32_t> order;
  /// paper_sweep only: the jobs of each BatchSolver::solve call.
  std::vector<std::vector<std::uint32_t>> slices;
  /// When non-zero, `order` is made of rounds of this many requests with
  /// one fixed size mix, and the closed loop sends whole rounds only: it
  /// finishes the round it is in when --seconds runs out.
  std::size_t round = 0;
  std::uint64_t digest = 0;
};

/// The service configuration every workload serves from: the library
/// defaults plus a bounded LRU table cache (the operator's manual bounds
/// it; unbounded, every distinct chain or drifted rate keeps its tables).
constexpr std::size_t kTableCacheBudgetBytes = 64ull << 20;
/// Service worker-pool width (the library default on a 4-core host is
/// util::hardware_parallelism() = 4; pinned so runs compare across hosts'
/// OpenMP settings).
constexpr std::size_t kServiceWorkers = 4;
service::ServiceOptions service_options();
core::BatchOptions batch_options();

Stream make_stream(Workload workload, std::uint64_t seed, double seconds);

/// The instance the standalone parallelism probes solve: the workload's
/// most expensive algorithm class at a mid-range size.
core::BatchJob probe_job(Workload workload, std::uint64_t seed);

/// Whether a traced live run traces request `k` of `stream`: every other
/// request, or every other round for streams made of rounds, so the two
/// halves see the same load and the same size mix.
inline bool traced_request(const Stream& stream, std::size_t k) {
  return (stream.round > 0 ? k / stream.round : k) % 2 == 0;
}

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) noexcept;

// -------------------------------------------------------------- checker
/// Tallies of one recorder; merged across threads after a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t verified = 0;
  std::uint64_t wrong = 0;          ///< mismatched the reference
  std::uint64_t refused = 0;        ///< rejected, retry-after, failed state
  std::uint64_t unanswered = 0;     ///< no result when the run ended
  std::uint64_t epsilon_served = 0; ///< non-bitwise results within (1+eps)
  double excess_sum = 0.0;          ///< sum of served / optimum - 1

  Tally& operator+=(const Tally& other) noexcept;
  std::uint64_t failed() const noexcept {
    return wrong + refused + unanswered;
  }
};

/// One thread's measurements: latencies plus results whose reference was
/// not ready while the run was timed.
struct Recorder {
  Tally tally;
  std::vector<double> latency_ms;
  /// Latencies of the requests whose client calls were traced (a traced
  /// live run traces every other request, or every other round).
  std::vector<double> traced_latency_ms;
  struct Pending {
    std::uint32_t variant;
    core::OptimizationResult result;
  };
  std::vector<Pending> pending;
};

/// Checks served results against standalone core::optimize references.
/// Exact hits, misses and re-solves must match bit for bit (plan and
/// objective bits).  A request with cache_epsilon > 0 may instead carry
/// an epsilon-served plan: its objective must be the evaluator's re-score
/// of that plan under the requested model, and at most (1 + eps) times
/// the fresh optimum.
class Checker {
 public:
  explicit Checker(const Stream& stream);

  /// Solves the references of `variants` (outside any timed region).
  void prepare(const std::vector<std::uint32_t>& variants);

  /// Checks now when the reference is ready, else parks the result in
  /// recorder.pending for finish().
  void accept(Recorder& recorder, std::uint32_t variant,
              const core::OptimizationResult& result) const;

  /// Solves the missing references and checks every pending result.
  void finish(std::vector<Recorder*> recorders);

 private:
  void check(Tally& tally, std::uint32_t variant,
             const core::OptimizationResult& result) const;

  const Stream& stream_;
  std::vector<core::OptimizationResult> refs_;
  std::vector<char> ready_;
};

// --------------------------------------------------------------- tracer
/// In-memory span store.  A span has a name, a request id shared by every
/// span of one request, start and end offsets from the tracer's epoch,
/// and its parent (the enclosing open span on the same thread, or -1).
/// Each thread appends to its own buffer; buffers are merged and written
/// out when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t request = 0;
    std::int64_t parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint32_t thread = 0;
  };

  Tracer();
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span on the calling thread; returns its handle (or -1 when
  /// tracing is off).
  std::int64_t open(const char* name, std::uint64_t request);
  void close(std::int64_t handle);
  /// Renames an open or closed span of the calling thread (a lookup span
  /// learns its outcome only when the call returns).
  void rename(std::int64_t handle, const char* name);

  /// Every recorded span, thread buffers concatenated; `parent` refers
  /// to a position in the returned vector.
  std::vector<Span> spans() const;
  /// Drops every span (between traced phases).
  void clear();

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::int64_t> open_stack;
    std::uint32_t thread = 0;
  };
  Buffer& local();

  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::uint64_t generation_ = 0;
};

/// RAII span; a no-op when tracing is off or `on` is false.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request,
             bool on = true)
      : tracer_(tracer), handle_(on && tracer.enabled()
                                     ? tracer.open(name, request)
                                     : -1) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void end() {
    if (handle_ >= 0) tracer_.close(handle_);
    handle_ = -1;
  }
  void rename(const char* name) {
    if (handle_ >= 0) tracer_.rename(handle_, name);
  }

 private:
  Tracer& tracer_;
  std::int64_t handle_;
};

// ---------------------------------------------------------------- stats
double median(std::vector<double> values);
/// The tail percentile every workload reports: the highest of {75, 90,
/// 95, 99, 99.9} that keeps at least ten samples beyond it in a run of
/// the benchmark's length on a 4-core host (about 50 slices on
/// paper_sweep, about 100 requests on wire_heavy), fixed so that runs of
/// slightly different sample counts report the same percentile.
constexpr double kTailPercentile = 75.0;

struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
/// `percentile` of `values`, stepped down the ladder above while fewer
/// than ten samples lie beyond it (the maximum below 40 samples).
Tail tail(std::vector<double> values, double percentile);
double quantile(std::vector<double> values, double q);

/// Process user+sys CPU seconds so far.
double process_cpu_seconds();
/// Resets the kernel's peak-resident mark (VmHWM) to the current resident
/// set, so peak_rss_mib() covers only what runs after this call.
void reset_peak_rss();
/// Peak resident set size since the last reset_peak_rss(), MiB.
double peak_rss_mib();

}  // namespace planbench
