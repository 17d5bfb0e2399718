// Shared-memory parallelism wrapper.
//
// The dynamic programs parallelize over independent table slabs and the
// Monte-Carlo runner over replicas.  Both use this single entry point, which
// maps onto OpenMP when available and degrades to a serial loop otherwise,
// so the library has no hard dependency on a threading runtime.
//
// parallel_for is a header-only template: the body is invoked through its
// static type, so lambdas inline into the loop with zero type-erasure (no
// std::function construction, no indirect call per iteration).
//
// Determinism contract: the callable receives the iteration index and must
// derive any randomness from it (see Xoshiro256::stream), so results are
// identical for every thread count.  The wrapper exposes no worker
// identity: bodies that accumulate write per-index slots folded in index
// order afterwards (the single-level DP's row counters), or commit per
// index (core::SolveCheckpoint's slab commits).  A parallel_for nested
// inside another one's body runs serially.
#pragma once

#include <cstddef>
#include <exception>
#include <mutex>

namespace chainckpt::util {

/// Number of worker threads the wrapper will use (OpenMP max threads, or 1).
int hardware_parallelism() noexcept;

/// Force the worker count for subsequent parallel_for calls; 0 restores the
/// runtime default.  Mostly used by tests and benches.
void set_parallelism(int threads) noexcept;

/// Runs body(i) for i in [begin, end) with dynamic scheduling.  Exceptions
/// thrown by the body are captured and the first one is rethrown on the
/// calling thread after the loop completes (OpenMP regions must not leak
/// exceptions).
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const int threads = hardware_parallelism();
  if (threads <= 1 || count == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  std::exception_ptr first_error;
  std::mutex error_mutex;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (long long i = static_cast<long long>(begin);
       i < static_cast<long long>(end); ++i) {
    try {
      body(static_cast<std::size_t>(i));
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  }
#else
  for (std::size_t i = begin; i < end; ++i) {
    try {
      body(i);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
#endif
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace chainckpt::util
