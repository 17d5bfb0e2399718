// planbench: one end-to-end plan-serving benchmark over the library's
// public entry points.
//
//   planbench --workload <paper_sweep|wire_heavy>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics through an in-process traced replay (and prints the
// tracing overhead and the trace-vs-end-to-end reconciliation).  The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  The exit code is non-zero when any result is wrong,
// refused or unanswered.  perfbench/README.md documents every metric.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/simd/simd_dispatch.hpp"
#include "engines.hpp"
#include "util/parallel.hpp"

namespace planbench {
namespace {

struct Args {
  Workload workload = Workload::kWireHeavy;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(value, args.workload)) {
        throw std::invalid_argument("unknown workload " + value);
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Requests the traced replay pushes through the layers: enough for
/// stable medians, few enough to stay a fraction of the run.  A stream
/// made of rounds replays one whole round, drift slice included.
std::size_t replay_count(const Stream& stream) {
  return stream.round > 0 ? stream.round : 150;
}

// -------------------------------------------------------------- reporting
struct Metric {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics BENCHMARK.json lists, in its order.
constexpr Metric kEndToEnd[] = {
    {"solves_per_s", "1/s"},     {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},   {"cpu_ms_per_solve", "ms"},
    {"peak_rss_mib", "MiB"},     {"setup_s", "s"},
};

/// Every per-layer metric: unit, whether BENCHMARK.json lists it (those
/// are measured on every workload), and what it should move.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool listed;
  const char* moves;
};

constexpr const char* kMovesNet =
    "latency_p50_ms, solves_per_s, cpu_ms_per_solve of edge-bound traffic; "
    "nothing on wire_heavy";
constexpr const char* kMovesService = "latency_tail_ms on wire_heavy";
constexpr const char* kMovesBatch =
    "latency_p50_ms on wire_heavy's drift slice; peak_rss_mib everywhere";
constexpr const char* kMovesCache =
    "latency_p50_ms and objective_excess on wire_heavy's drift slice; "
    "nothing on paper_sweep";
constexpr const char* kMovesEvaluator =
    "latency_p50_ms on wire_heavy's drift slice";
constexpr const char* kMovesTables =
    "latency_p50_ms on wire_heavy; solves_per_s on paper_sweep";
constexpr const char* kMovesDp =
    "latency_p50_ms on wire_heavy; solves_per_s on paper_sweep";

constexpr LayerMetric kLayers[] = {
    {"net.encode_request_us", "us", true, kMovesNet},
    {"net.decode_request_us", "us", true, kMovesNet},
    {"net.encode_status_us", "us", true, kMovesNet},
    {"net.request_bytes", "B", true, kMovesNet},
    {"net.frames_per_flush", "ratio", false, kMovesNet},
    {"net.retry_after", "count", false, kMovesNet},
    {"net.protocol_errors", "count", false, kMovesNet},
    {"net.edge_us", "us", false, kMovesNet},
    {"service.submit_us", "us", true, kMovesService},
    {"service.latency_ms", "ms", true, kMovesService},
    {"service.queue_wait_ms", "ms", true, kMovesService},
    {"service.rejected", "count", false, kMovesService},
    {"service.expired", "count", false, kMovesService},
    {"service.preempted", "count", false, kMovesService},
    {"batch.solve_job_ms", "ms", true, kMovesBatch},
    {"batch.table_acquisitions", "count", false, kMovesBatch},
    {"batch.table_reuse_ratio", "ratio", false, kMovesBatch},
    {"batch.tables_patched", "count", false, kMovesBatch},
    {"batch.resident_mib", "MiB", true, kMovesBatch},
    {"plan_cache.lookup_us.exact", "us", false, kMovesCache},
    {"plan_cache.lookup_us.epsilon", "us", false, kMovesCache},
    {"plan_cache.lookup_us.rejected", "us", false, kMovesCache},
    {"plan_cache.lookup_us.miss", "us", true, kMovesCache},
    {"plan_cache.insert_us", "us", true, kMovesCache},
    {"plan_cache.lookups", "count", false, kMovesCache},
    {"plan_cache.hit_ratio", "ratio", false, kMovesCache},
    {"plan_cache.epsilon_share", "ratio", false, kMovesCache},
    {"evaluator.score_us", "us", false, kMovesEvaluator},
    {"tables.build_ms.ad", "ms", false, kMovesTables},
    {"tables.build_ms.adv", "ms", true, kMovesTables},
    {"tables.build_ms.admv_star", "ms", true, kMovesTables},
    {"tables.build_ms.admv", "ms", true, kMovesTables},
    {"dp.solve_ms.ad", "ms", false, kMovesDp},
    {"dp.solve_ms.adv", "ms", true, kMovesDp},
    {"dp.solve_ms.admv_star", "ms", true, kMovesDp},
    {"dp.solve_ms.admv", "ms", true, kMovesDp},
    {"dp.cells_scanned", "count", true, kMovesDp},
    {"dp.cells_per_us", "cells/us", true, kMovesDp},
    {"dp.speedup_4t", "x", true, kMovesDp},
    {"service.parallel_use", "x", true, kMovesDp},
};

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<std::pair<Metric, double>>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].first.name
       << "\": {\"value\": " << number(metrics[i].second)
       << ", \"unit\": \"" << metrics[i].first.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return line;
}

void print_fingerprint(const Args& args, const Stream& stream) {
  const char* simd_env = std::getenv("CHAINCKPT_SIMD");
  const char* slab_env = std::getenv("CHAINCKPT_INTRA_SLAB");
  std::string quota = read_first_line("/sys/fs/cgroup/cpu.max");
  if (quota.empty()) {
    quota = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  }
  std::cout << "host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " cgroup_cpu_quota=\"" << (quota.empty() ? "none" : quota)
            << "\" hardware_parallelism=" << util::hardware_parallelism()
            << " simd=" << core::simd::tier_name(core::simd::active_tier())
            << " CHAINCKPT_SIMD=" << (simd_env ? simd_env : "unset")
            << " CHAINCKPT_INTRA_SLAB=" << (slab_env ? slab_env : "unset")
            << " build=" << PLANBENCH_BUILD_TYPE << " commit=" << args.commit
            << '\n';
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(stream.digest));
  std::cout << "workload: " << to_string(args.workload)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " stream_digest=" << digest
            << " variants=" << stream.variants.size()
            << " warmup=" << stream.warmup.size()
            << " stream_requests=" << stream.order.size() << '\n';
  if (args.workload == Workload::kPaperSweep) {
    std::cout << "loop: closed, BatchSolver::solve per (platform, pattern) "
                 "slice of 150 jobs, fresh solver per repetition\n";
  } else {
    std::cout << "loop: closed, 1 connection x 1 in flight, whole rounds of "
              << stream.round << '\n';
  }
}

void print_tally(const char* label, const Tally& t) {
  std::cout << label << ": attempted=" << t.attempted
            << " answered=" << t.answered << " verified=" << t.verified
            << " epsilon_served=" << t.epsilon_served << " wrong=" << t.wrong
            << " refused=" << t.refused << " unanswered=" << t.unanswered
            << '\n';
}

/// Where every variant is used by every run (the paper grid), references
/// are solved before timing and results are checked as they arrive;
/// elsewhere only the variants a run reached are solved, after it.
void prepare_known_references(const Stream& stream, Checker& checker) {
  if (stream.workload != Workload::kPaperSweep) return;
  std::vector<std::uint32_t> all(stream.variants.size());
  for (std::uint32_t v = 0; v < all.size(); ++v) all[v] = v;
  checker.prepare(all);
}

// ------------------------------------------------------------ end to end
int run_end_to_end(const Args& args) {
  // Set-up (stream generation, server boot, warm-up) runs five times;
  // setup_s is the median, and the last rig serves the timed phase.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  Stream stream;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const Clock::time_point start = Clock::now();
    stream = make_stream(args.workload, args.seed, args.seconds);
    rig = boot(stream);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  print_fingerprint(args, stream);
  Checker checker(stream);
  prepare_known_references(stream, checker);
  Tracer tracer;  // disabled: end-to-end numbers are untraced
  LiveResult live = run_live(*rig, stream, checker, args.seconds, tracer);
  std::vector<Recorder*> recorders{&rig->warmup};
  for (auto& r : live.recorders) recorders.push_back(r.get());
  checker.finish(recorders);
  print_tally("warm-up", rig->warmup.tally);

  const Tally timed = live.tally();
  print_tally("timed", timed);
  Tally t = timed;
  t += rig->warmup.tally;
  const std::vector<double> lat = live.latencies_ms();
  const double verified =
      static_cast<double>(std::max<std::uint64_t>(1, timed.verified));
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, t.attempted));
  const Tail tl = tail(lat, kTailPercentile);
  const double values[] = {
      static_cast<double>(timed.verified) / live.elapsed_s,
      median(lat),
      tl.value,
      1000.0 * live.cpu_s / verified,
      live.peak_rss_mib,
      median(setup_s),
  };
  std::vector<std::pair<Metric, double>> metrics;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    metrics.emplace_back(kEndToEnd[i], values[i]);
  }
  for (const auto& [m, v] : metrics) {
    std::cout << "metric " << m.name << " = " << number(v) << ' ' << m.unit;
    if (std::string(m.name) == "latency_tail_ms") {
      std::cout << " (p" << tl.percentile << ", " << tl.beyond
                << " samples beyond it, of " << lat.size() << ")";
    }
    if (std::string(m.name) == "setup_s") {
      std::cout << " (median of " << kSetups << " set-ups:";
      for (const double s : setup_s) std::cout << ' ' << number(s);
      std::cout << ")";
    }
    std::cout << '\n';
  }
  std::cout << "metric error_rate = "
            << number(static_cast<double>(t.failed()) / attempted)
            << " ratio (" << t.failed() << " of " << t.attempted << ")\n";
  std::cout << "metric objective_excess = "
            << number(timed.excess_sum / verified) << " ratio (mean over "
            << timed.verified << " timed results; " << timed.epsilon_served
            << " epsilon-served)\n";
  if (args.workload != Workload::kPaperSweep) {
    const auto& w = live.wire;
    std::cout << "edge: frames_sent=" << w.frames_sent
              << " flushes=" << w.flushes
              << " retry_after=" << w.throttled + w.backpressured
              << " protocol_errors=" << w.protocol_errors
              << " cache exact/epsilon/rejected/miss="
              << live.service.plan_cache.exact_hits << '/'
              << live.service.plan_cache.epsilon_hits << '/'
              << live.service.plan_cache.cert_rejections << '/'
              << live.service.plan_cache.misses
              << " tables built/patched/reused="
              << live.service.solver.tables_built << '/'
              << live.service.solver.tables_patched << '/'
              << live.service.solver.tables_reused << '\n';
  }
  const bool correct = t.failed() == 0 && t.verified > 0;
  print_json(correct, t.attempted, t.failed(), metrics);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------------ traced
/// Self time of every span: its duration minus the part its children
/// cover (children of one span never overlap: they run on its thread).
std::vector<double> self_times_us(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_us - spans[i].start_us;
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    }
  }
  return self;
}

void write_spans(const std::string& path,
                 const std::vector<Tracer::Span>& live,
                 const std::vector<Tracer::Span>& replayed) {
  constexpr std::size_t kLiveCap = 100000;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "planbench: cannot write " << path << '\n';
    return;
  }
  out << "phase,name,request,parent,thread,start_us,end_us\n";
  const auto dump = [&](const char* phase,
                        const std::vector<Tracer::Span>& spans,
                        std::size_t cap) {
    for (std::size_t i = 0; i < spans.size() && i < cap; ++i) {
      const Tracer::Span& s = spans[i];
      out << phase << ',' << s.name << ',' << s.request << ',' << s.parent
          << ',' << s.thread << ',' << number(s.start_us) << ','
          << number(s.end_us) << '\n';
    }
  };
  dump("live", live, kLiveCap);
  dump("replay", replayed, replayed.size());
  std::cout << "trace: " << std::min(live.size(), kLiveCap) << " of "
            << live.size() << " live spans and " << replayed.size()
            << " replay spans written to " << path << '\n';
}

int run_traced(const Args& args) {
  const Stream stream = make_stream(args.workload, args.seed, args.seconds);
  print_fingerprint(args, stream);
  Checker checker(stream);
  prepare_known_references(stream, checker);
  Tracer tracer;
  Tally total;

  // One live pass over half the run, tracing every other request: the
  // untraced half gives latency_p50_ms, the traced half the overhead.
  double p50[2] = {0.0, 0.0};
  net::WireServerStats wire;
  {
    std::unique_ptr<Rig> rig = boot(stream);
    tracer.set_enabled(true);
    LiveResult live =
        run_live(*rig, stream, checker, args.seconds / 2.0, tracer);
    tracer.set_enabled(false);
    std::vector<Recorder*> recorders{&rig->warmup};
    for (auto& r : live.recorders) recorders.push_back(r.get());
    checker.finish(recorders);
    total += rig->warmup.tally;
    total += live.tally();
    p50[0] = median(live.latencies_ms());
    p50[1] = median(live.latencies_ms(/*traced=*/true));
    wire = live.wire;
  }
  const std::vector<Tracer::Span> live_spans = tracer.spans();
  tracer.clear();

  tracer.set_enabled(true);
  Recorder recorder;
  const ReplayReport report = replay(stream, replay_count(stream),
                                     checker, tracer, args.seed, recorder);
  tracer.set_enabled(false);
  checker.finish({&recorder});
  total += recorder.tally;
  const std::vector<Tracer::Span> spans = tracer.spans();

  std::map<std::string, double> values(report.metrics.begin(),
                                       report.metrics.end());
  const double service_p50 = median(report.service_latency_ms);
  if (args.workload != Workload::kPaperSweep) {
    values["net.frames_per_flush"] =
        wire.flushes > 0 ? static_cast<double>(wire.frames_sent) /
                               static_cast<double>(wire.flushes)
                         : 0.0;
    values["net.retry_after"] =
        static_cast<double>(wire.throttled + wire.backpressured);
    values["net.protocol_errors"] = static_cast<double>(wire.protocol_errors);
    values["net.edge_us"] = 1000.0 * (p50[0] - service_p50);
  }

  print_tally("checked (live pass + replay)", total);
  std::vector<std::pair<Metric, double>> listed;
  bool complete = true;
  for (const LayerMetric& m : kLayers) {
    const auto it = values.find(m.name);
    std::cout << "layer " << m.name << " = ";
    if (it == values.end()) {
      std::cout << "n/a (no such calls on this workload)";
    } else {
      std::cout << number(it->second) << ' ' << m.unit;
    }
    std::cout << "  [should move: " << m.moves << "]\n";
    if (!m.listed) continue;
    if (it == values.end()) {
      complete = false;
      continue;
    }
    listed.push_back({Metric{m.name, m.unit}, it->second});
  }

  // Where the replay's time went, by span name.
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(self[i]);
  }
  std::cout << "self time by span (replay): name calls median_us total_ms\n";
  for (const auto& [name, v] : by_name) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    std::cout << "  " << name << ' ' << v.size() << ' ' << number(median(v))
              << ' ' << number(sum / 1000.0) << '\n';
  }

  const double path = median(report.path_ms);
  if (args.workload == Workload::kPaperSweep) {
    std::cout << "reconcile: slice latency_p50_ms = " << number(p50[0])
              << " ms (untraced live); replayed jobs' per-job path "
                 "(codecs + service.submit + batch.solve_job) median = "
              << number(path) << " ms; a slice is 150 such jobs on "
              << util::hardware_parallelism()
              << " workers, so the residual is batch scheduling and load "
                 "imbalance\n";
  } else {
    std::cout << "reconcile: latency_p50_ms = " << number(p50[0])
              << " ms (untraced live) vs per-request sum of layer self "
                 "times on the path (net codecs + service.submit + "
                 "batch.solve_job) median = "
              << number(path) << " ms; residual = " << number(p50[0] - path)
              << " ms (edge transport + queue wait)\n";
  }
  std::cout << "tracing overhead: latency_p50_ms of the traced half - the "
               "untraced half of the live pass = "
            << number(p50[1] - p50[0]) << " ms ("
            << number(100.0 * (p50[1] - p50[0]) / p50[0]) << " %)\n";
  if (!args.trace_out.empty()) write_spans(args.trace_out, live_spans, spans);

  if (!complete) {
    std::cerr << "planbench: a listed per-layer metric was not measured\n";
  }
  const bool correct = complete && total.failed() == 0 && total.verified > 0;
  print_json(correct, total.attempted, total.failed(), listed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace planbench

int main(int argc, char** argv) {
  using namespace planbench;
  // A fixed mmap threshold: glibc otherwise raises it after each large
  // free, so blocks of table and DP-context size land in whichever worker
  // thread's heap happened to free one, and peak RSS varies from run to
  // run of the same stream by 10 %.  Fixed, every block of 1 MiB or more
  // is mapped on allocation and unmapped on free, and peak RSS follows
  // the live bytes.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    const Args args = parse_args(argc, argv);
    return args.trace ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::cerr << "planbench: " << e.what() << '\n';
    return 2;
  }
}
