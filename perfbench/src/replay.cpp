// The traced replay: the workload's stream pushed through each layer's
// public calls in-process, one span per call, in three sweeps --
//   A. codecs + SolverService, in the workload's own loop shape;
//   B. BatchSolver::solve_job on a standalone solver;
//   C. the same request decomposed: PlanCache::lookup, DpContext
//      construction, core::optimize, PlanCache::insert, and the
//      PlanEvaluator re-score of epsilon and rejected candidates --
// followed by the standalone parallelism probes.  Sweeps B and C run
// inside a util::parallel_for worker, the threading context the
// service's pool gives every solve.
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <map>
#include <unordered_map>

#include "analysis/evaluator.hpp"
#include "engines.hpp"
#include "net/payload.hpp"
#include "util/parallel.hpp"

namespace planbench {
namespace {

template <typename Fn>
void as_pool_worker(Fn&& fn) {
  util::parallel_for(0, 2, [&](std::size_t i) {
    if (i == 0) fn();
  });
}

std::size_t alg_index(core::Algorithm algorithm) {
  switch (algorithm) {
    case core::Algorithm::kAD: return 0;
    case core::Algorithm::kADVstar: return 1;
    case core::Algorithm::kADMVstar: return 2;
    default: return 3;
  }
}
constexpr const char* kAlgKey[] = {"ad", "adv", "admv_star", "admv"};
constexpr const char* kTablesSpan[] = {"tables.build.ad", "tables.build.adv",
                                       "tables.build.admv_star",
                                       "tables.build.admv"};
constexpr const char* kDpSpan[] = {"dp.optimize.ad", "dp.optimize.adv",
                                   "dp.optimize.admv_star", "dp.optimize.admv"};

const char* lookup_span(core::CacheOutcome outcome) {
  switch (outcome) {
    case core::CacheOutcome::kExactHit: return "plan_cache.lookup.exact";
    case core::CacheOutcome::kEpsilonHit: return "plan_cache.lookup.epsilon";
    case core::CacheOutcome::kCertRejected:
      return "plan_cache.lookup.rejected";
    case core::CacheOutcome::kMiss: break;
  }
  return "plan_cache.lookup.miss";
}

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

core::BatchJob job_of(const service::JobRequest& request) {
  core::BatchJob job = request.work;
  job.cache_epsilon = request.options.cache_epsilon;
  return job;
}

// ---------------------------------------------------------------- sweep A
// One thread plays the client of the live run: for each request it
// encodes, decodes and submits, waits through SolverService::wait, and
// encodes the status, one request in flight.  The completion callback
// timestamps each job's terminal transition.
struct ServiceSweep {
  std::vector<double> latency_ms;  // per replayed request
  double request_bytes = 0.0;
  service::ServiceStats stats;
};

ServiceSweep sweep_service(const Stream& stream,
                           const std::vector<std::uint32_t>& seq,
                           const Checker& checker, Recorder& recorder,
                           Tracer& tracer) {
  ServiceSweep out;
  std::mutex mutex;
  std::condition_variable cv;
  std::unordered_map<service::JobId, Clock::time_point> finished;
  service::SolverService svc(service_options());
  svc.on_completion([&](const service::JobStatus& status) {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex);
    finished.emplace(status.id, now);
    cv.notify_all();
  });

  for (std::size_t k = 0; k < seq.size(); ++k) {
    const service::JobRequest& request = stream.variants[seq[k]].request;
    std::vector<std::uint8_t> bytes;
    {
      ScopedSpan span(tracer, "net.encode_job_request", k);
      bytes = net::encode_job_request(request);
    }
    out.request_bytes += static_cast<double>(bytes.size());
    service::JobRequest decoded;
    bool ok = false;
    {
      ScopedSpan span(tracer, "net.decode_job_request", k);
      ok = net::decode_job_request(bytes.data(), bytes.size(), decoded);
    }
    ++recorder.tally.attempted;
    if (!ok) {
      ++recorder.tally.wrong;
      out.latency_ms.push_back(0.0);
      continue;
    }
    service::JobHandle handle;
    const Clock::time_point submitted = Clock::now();
    {
      ScopedSpan span(tracer, "service.submit", k);
      handle = svc.submit(std::move(decoded));
    }
    service::JobStatus status;
    {
      ScopedSpan span(tracer, "service.wait", k);
      status = svc.wait(handle);
    }
    {
      ScopedSpan span(tracer, "net.encode_job_status", k);
      const std::vector<std::uint8_t> reply = net::encode_job_status(status);
      (void)reply;
    }
    Clock::time_point done;
    {
      // wait() may return a beat before the callback has run.
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return finished.count(status.id) != 0; });
      done = finished.at(status.id);
    }
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - submitted).count());
    if (status.state != service::JobState::kSucceeded) {
      ++recorder.tally.refused;
      continue;
    }
    ++recorder.tally.answered;
    checker.accept(recorder, seq[k], status.result);
  }
  out.stats = svc.stats();
  svc.shutdown();
  return out;
}

// ---------------------------------------------------------------- sweep C
struct Decomposition {
  std::uint64_t cells = 0;
  core::PlanCacheStats cache;
};

/// One spanned PlanEvaluator re-score of `plan` under the job's model, in
/// the framework the job's DP optimizes (as PlanCache::lookup scores).
void score(Tracer& tracer, std::size_t k, const core::BatchJob& job,
           const plan::ResiliencePlan& plan) {
  ScopedSpan span(tracer, "evaluator.expected_makespan", k);
  const analysis::PlanEvaluator evaluator(job.chain, job.costs);
  (void)evaluator.expected_makespan(
      plan, job.algorithm == core::Algorithm::kADMV
                ? analysis::FormulaMode::kPartialFramework
                : analysis::FormulaMode::kAuto);
}

std::uint64_t shape_key(const core::BatchJob& job) {
  const std::size_t alg = alg_index(job.algorithm);
  std::uint64_t h = fnv1a(&alg, sizeof(alg));
  for (std::size_t i = 1; i <= job.chain.size(); ++i) {
    const double w = job.chain.weight(i);
    h = fnv1a(&w, sizeof(w), h);
  }
  return h;
}

Decomposition sweep_decomposed(const Stream& stream,
                               const std::vector<std::uint32_t>& seq,
                               const Checker& checker, Recorder& recorder,
                               Tracer& tracer) {
  Decomposition out;
  core::PlanCache cache;
  // Mirrors the cache's per-shape candidate, for the evaluator span.
  std::unordered_map<std::uint64_t, plan::ResiliencePlan> candidates;
  for (std::size_t k = 0; k < seq.size(); ++k) {
    const core::BatchJob job = job_of(stream.variants[seq[k]].request);
    const double epsilon = std::max(0.0, job.cache_epsilon);
    const std::size_t alg = alg_index(job.algorithm);
    const std::uint64_t shape = shape_key(job);
    ScopedSpan root(tracer, "solve_job.decomposed", k);
    core::CacheLookup lookup;
    {
      ScopedSpan span(tracer, "plan_cache.lookup", k);
      lookup = cache.lookup(job.algorithm, job.chain, job.costs, epsilon);
      span.rename(lookup_span(lookup.outcome));
    }
    const auto candidate = candidates.find(shape);
    if ((lookup.outcome == core::CacheOutcome::kEpsilonHit ||
         lookup.outcome == core::CacheOutcome::kCertRejected) &&
        candidate != candidates.end()) {
      score(tracer, k, job, candidate->second);
    }
    core::OptimizationResult result;
    ++recorder.tally.attempted;
    if (lookup.outcome == core::CacheOutcome::kExactHit ||
        lookup.outcome == core::CacheOutcome::kEpsilonHit) {
      result = lookup.result;
    } else {
      std::unique_ptr<core::DpContext> ctx;
      {
        ScopedSpan span(tracer, kTablesSpan[alg], k);
        ctx = std::make_unique<core::DpContext>(
            job.chain, job.costs, core::DpContext::kDefaultMaxN,
            job.algorithm == core::Algorithm::kADMV);
      }
      {
        ScopedSpan span(tracer, kDpSpan[alg], k);
        result = core::optimize(job.algorithm, *ctx);
      }
      {
        ScopedSpan span(tracer, "plan_cache.insert", k);
        cache.insert(job.algorithm, job.chain, job.costs, result);
      }
      candidates[shape] = result.plan;
      // Exact cell count, outside the spans: the pruned scan reports the
      // candidates the dense kernel evaluates, and must agree bitwise.
      ctx->set_scan_mode(core::ScanMode::kMonotonePruned);
      const core::OptimizationResult pruned = core::optimize(job.algorithm, *ctx);
      out.cells += pruned.scan.dense_cells;
      if (!(pruned.plan == result.plan) ||
          std::memcmp(&pruned.expected_makespan, &result.expected_makespan,
                      sizeof(double)) != 0) {
        ++recorder.tally.wrong;
      }
    }
    root.end();
    ++recorder.tally.answered;
    checker.accept(recorder, seq[k], result);
  }
  out.cache = cache.stats_snapshot();
  return out;
}

// ----------------------------------------------------------------- probes
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    t.push_back(ms_since(start));
  }
  return median(std::move(t));
}

}  // namespace

ReplayReport replay(const Stream& stream, std::size_t count,
                    const Checker& checker, Tracer& tracer,
                    std::uint64_t seed, Recorder& recorder) {
  ReplayReport report;
  count = std::min(count, stream.order.size());
  const std::vector<std::uint32_t> seq(stream.order.begin(),
                                       stream.order.begin() + count);

  // ---- sweeps
  const ServiceSweep a = sweep_service(stream, seq, checker, recorder, tracer);
  core::BatchSolver solver(batch_options());
  as_pool_worker([&] {
    for (std::size_t k = 0; k < seq.size(); ++k) {
      const core::BatchJob job = job_of(stream.variants[seq[k]].request);
      core::OptimizationResult result;
      {
        ScopedSpan span(tracer, "batch.solve_job", k);
        result = solver.solve_job(job);
      }
      ++recorder.tally.attempted;
      ++recorder.tally.answered;
      checker.accept(recorder, seq[k], result);
    }
  });
  const core::BatchStats batch = solver.stats_snapshot();
  const double resident_mib =
      static_cast<double>(solver.resident_bytes()) / (1024.0 * 1024.0);
  Decomposition c;
  as_pool_worker([&] {
    c = sweep_decomposed(stream, seq, checker, recorder, tracer);
  });

  // ---- per-request durations from the spans
  std::map<std::string, std::vector<double>> by_name;  // microseconds
  std::map<std::string, std::vector<double>> per_request;
  for (const Tracer::Span& s : tracer.spans()) {
    const double us = s.end_us - s.start_us;
    by_name[s.name].push_back(us);
    auto& slot = per_request[s.name];
    if (s.request < seq.size()) {
      slot.resize(seq.size(), 0.0);
      slot[s.request] += us;
    }
  }
  const auto med = [&](const std::string& name) {
    return median(by_name[name]);
  };
  const auto at = [&](const std::string& name, std::size_t k) {
    const auto& v = per_request[name];
    return k < v.size() ? v[k] : 0.0;
  };
  std::vector<double> queue_wait;
  for (std::size_t k = 0; k < seq.size(); ++k) {
    const double solve_ms = at("batch.solve_job", k) / 1000.0;
    report.service_latency_ms.push_back(a.latency_ms[k]);
    queue_wait.push_back(a.latency_ms[k] - solve_ms);
    report.path_ms.push_back(
        (at("net.encode_job_request", k) + at("net.decode_job_request", k) +
         at("service.submit", k) + at("net.encode_job_status", k)) /
            1000.0 +
        solve_ms);
  }

  auto& m = report.metrics;
  const auto put = [&](const std::string& name, double value) {
    m.emplace_back(name, value);
  };
  const auto put_span = [&](const std::string& metric,
                            const std::string& span, double scale) {
    if (!by_name[span].empty()) put(metric, med(span) * scale);
  };
  put_span("net.encode_request_us", "net.encode_job_request", 1.0);
  put_span("net.decode_request_us", "net.decode_job_request", 1.0);
  put_span("net.encode_status_us", "net.encode_job_status", 1.0);
  put("net.request_bytes", a.request_bytes / static_cast<double>(seq.size()));
  put_span("service.submit_us", "service.submit", 1.0);
  put("service.latency_ms", median(report.service_latency_ms));
  put("service.queue_wait_ms", median(queue_wait));
  put("service.rejected", static_cast<double>(a.stats.rejected));
  put("service.expired", static_cast<double>(a.stats.expired));
  put("service.preempted", static_cast<double>(a.stats.preempted));
  put_span("batch.solve_job_ms", "batch.solve_job", 1e-3);
  const double acquisitions =
      static_cast<double>(batch.tables_built + batch.tables_reused);
  put("batch.table_acquisitions", acquisitions);
  put("batch.table_reuse_ratio",
      acquisitions > 0.0 ? static_cast<double>(batch.tables_reused) /
                               acquisitions
                         : 0.0);
  put("batch.tables_patched", static_cast<double>(batch.tables_patched));
  put("batch.resident_mib", resident_mib);
  for (const char* outcome : {"exact", "epsilon", "rejected", "miss"}) {
    put_span(std::string("plan_cache.lookup_us.") + outcome,
             std::string("plan_cache.lookup.") + outcome, 1.0);
  }
  put_span("plan_cache.insert_us", "plan_cache.insert", 1.0);
  const double lookups = static_cast<double>(c.cache.lookups);
  put("plan_cache.lookups", lookups);
  put("plan_cache.hit_ratio",
      lookups > 0.0 ? static_cast<double>(c.cache.exact_hits +
                                          c.cache.epsilon_hits) /
                          lookups
                    : 0.0);
  put("plan_cache.epsilon_share",
      lookups > 0.0 ? static_cast<double>(c.cache.epsilon_hits) / lookups
                    : 0.0);
  put_span("evaluator.score_us", "evaluator.expected_makespan", 1.0);
  for (std::size_t i = 0; i < 4; ++i) {
    put_span(std::string("tables.build_ms.") + kAlgKey[i], kTablesSpan[i],
             1e-3);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    put_span(std::string("dp.solve_ms.") + kAlgKey[i], kDpSpan[i], 1e-3);
  }
  double dp_us = 0.0;
  for (const char* span : kDpSpan) {
    for (const double us : by_name[span]) dp_us += us;
  }
  put("dp.cells_scanned", static_cast<double>(c.cells));
  put("dp.cells_per_us",
      dp_us > 0.0 ? static_cast<double>(c.cells) / dp_us : 0.0);

  // ---- standalone parallelism probes (untraced)
  const core::BatchJob probe = probe_job(stream.workload, seed);
  {
    const core::DpContext ctx(probe.chain, probe.costs,
                              core::DpContext::kDefaultMaxN,
                              probe.algorithm == core::Algorithm::kADMV);
    const auto timed = [&](int threads) {
      util::set_parallelism(threads);
      const double ms =
          median_ms(3, [&] { (void)core::optimize(probe.algorithm, ctx); });
      util::set_parallelism(0);
      return ms;
    };
    put("dp.speedup_4t", timed(1) / timed(4));
  }
  util::set_parallelism(1);
  const double standalone = median_ms(3, [&] {
    core::BatchSolver fresh(batch_options());
    (void)fresh.solve_job(probe);
  });
  util::set_parallelism(0);
  std::vector<double> in_service;
  for (int i = 0; i < 3; ++i) {
    service::SolverService svc(service_options());  // idle, cold cache
    service::JobRequest request;
    request.work = probe;
    const Clock::time_point start = Clock::now();
    (void)svc.wait(svc.submit(std::move(request)));
    in_service.push_back(ms_since(start));
  }
  put("service.parallel_use", standalone / median(in_service));
  return report;
}

}  // namespace planbench
