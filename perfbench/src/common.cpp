#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "analysis/evaluator.hpp"
#include "util/parallel.hpp"

namespace planbench {

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Tally& Tally::operator+=(const Tally& other) noexcept {
  attempted += other.attempted;
  answered += other.answered;
  verified += other.verified;
  wrong += other.wrong;
  refused += other.refused;
  unanswered += other.unanswered;
  epsilon_served += other.epsilon_served;
  excess_sum += other.excess_sum;
  return *this;
}

// -------------------------------------------------------------- checker
namespace {

std::uint64_t bits(double value) noexcept {
  std::uint64_t out;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

}  // namespace

Checker::Checker(const Stream& stream)
    : stream_(stream),
      refs_(stream.variants.size()),
      ready_(stream.variants.size(), 0) {}

void Checker::prepare(const std::vector<std::uint32_t>& variants) {
  std::vector<std::uint32_t> todo;
  for (const std::uint32_t v : variants) {
    if (!ready_[v]) {
      ready_[v] = 1;  // claims it; solved below
      todo.push_back(v);
    }
  }
  // Job-parallel; each standalone optimize() then runs its DP serially.
  util::parallel_for(0, todo.size(), [&](std::size_t i) {
    const core::BatchJob& job = stream_.variants[todo[i]].request.work;
    refs_[todo[i]] = core::optimize(job.algorithm, job.chain, job.costs);
  });
}

void Checker::accept(Recorder& recorder, std::uint32_t variant,
                     const core::OptimizationResult& result) const {
  if (ready_[variant]) {
    check(recorder.tally, variant, result);
  } else {
    recorder.pending.push_back({variant, result});
  }
}

void Checker::finish(std::vector<Recorder*> recorders) {
  std::vector<std::uint32_t> missing;
  for (const Recorder* r : recorders) {
    for (const auto& p : r->pending) missing.push_back(p.variant);
  }
  prepare(missing);
  for (Recorder* r : recorders) {
    for (const auto& p : r->pending) check(r->tally, p.variant, p.result);
    r->pending.clear();
  }
}

void Checker::check(Tally& tally, std::uint32_t variant,
                    const core::OptimizationResult& result) const {
  const core::OptimizationResult& ref = refs_[variant];
  if (result.plan == ref.plan &&
      bits(result.expected_makespan) == bits(ref.expected_makespan)) {
    ++tally.verified;
    return;
  }
  const service::JobRequest& request = stream_.variants[variant].request;
  const double epsilon = request.options.cache_epsilon;
  if (epsilon > 0.0 && result.plan.size() == request.work.chain.size()) {
    try {
      const analysis::PlanEvaluator evaluator(request.work.chain,
                                              request.work.costs);
      const double score = evaluator.expected_makespan(
          result.plan, request.work.algorithm == core::Algorithm::kADMV
                           ? analysis::FormulaMode::kPartialFramework
                           : analysis::FormulaMode::kAuto);
      if (bits(score) == bits(result.expected_makespan) &&
          score <= (1.0 + epsilon) * ref.expected_makespan) {
        ++tally.verified;
        ++tally.epsilon_served;
        tally.excess_sum += score / ref.expected_makespan - 1.0;
        return;
      }
    } catch (const std::exception&) {
      // An invalid plan is a wrong result.
    }
  }
  ++tally.wrong;
}

// --------------------------------------------------------------- tracer
Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer::Buffer& Tracer::local() {
  thread_local const Tracer* owner = nullptr;
  thread_local std::uint64_t generation = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != this || generation != generation_ || buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffer->spans.reserve(1 << 12);
    owner = this;
    generation = generation_;
  }
  return *buffer;
}

std::int64_t Tracer::open(const char* name, std::uint64_t request) {
  Buffer& b = local();
  Span span;
  span.name = name;
  span.request = request;
  span.parent = b.open_stack.empty() ? -1 : b.open_stack.back();
  span.thread = b.thread;
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  b.spans.push_back(span);
  const auto handle = static_cast<std::int64_t>(b.spans.size() - 1);
  b.open_stack.push_back(handle);
  return handle;
}

void Tracer::close(std::int64_t handle) {
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(handle)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  if (!b.open_stack.empty() && b.open_stack.back() == handle) {
    b.open_stack.pop_back();
  }
}

void Tracer::rename(std::int64_t handle, const char* name) {
  local().spans[static_cast<std::size_t>(handle)].name = name;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    const auto offset = static_cast<std::int64_t>(out.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += offset;
      out.push_back(s);
    }
  }
  return out;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  ++generation_;
}

// ---------------------------------------------------------------- stats
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

Tail tail(std::vector<double> values, double percentile) {
  Tail out;
  if (values.empty()) return out;
  const double n = static_cast<double>(values.size());
  const auto beyond = [n](double p) {
    return std::floor(n * (1.0 - p / 100.0));
  };
  out.percentile = 100.0;
  for (const double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (p <= percentile && beyond(p) >= 10.0) out.percentile = p;
  }
  out.value = quantile(std::move(values), out.percentile / 100.0);
  out.beyond = static_cast<std::size_t>(beyond(out.percentile));
  return out;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset the peak-RSS mark");
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace planbench
