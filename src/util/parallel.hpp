// Shared-memory parallelism: one process-wide helper pool.
//
// The dynamic programs parallelize over independent table slabs and rows,
// the table builds over row blocks, the batch solver over jobs and the
// Monte-Carlo runner over replicas.  All of them use parallel_for, which
// runs on one pool of hardware_parallelism() - 1 helper threads, started
// on first use.  A call publishes its loop, then claims indices from the
// loop's atomic counter and runs them itself; idle helpers claim indices
// of any published loop, so a loop nested inside another one's body (a
// solve inside a batch job or a service dispatch thread) runs on every
// thread that has nothing else to do.  Helpers sleep while no loop has
// unclaimed indices.
//
// A caller whose indices are all claimed blocks until the helpers running
// them finish, without taking other work: a body it took could wait on
// what the caller has yet to finish (a batch job waiting on the table
// build that called the loop), and the caller would return only after
// that unrelated body.  So a body may block only on its own nested loops
// or on threads outside the pool -- which is why service jobs run on the
// service's own dispatch threads.
//
// parallel_for is a template over the body type: the caller's lambda is
// invoked through its static type inside one trampoline per body type,
// with no std::function construction.
//
// Determinism contract: the callable receives the iteration index and must
// derive any randomness from it (see Xoshiro256::stream), so results are
// identical for every thread count.  The wrapper exposes no worker
// identity: bodies that accumulate write per-index slots folded in index
// order afterwards (the single-level DP's row counters), or commit per
// index (core::SolveCheckpoint's slab commits).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>

namespace chainckpt::util {

/// Thread count parallel_for uses: the caller plus this many minus one
/// helpers.  Defaults to the number of CPUs in the process affinity mask.
int hardware_parallelism() noexcept;

/// Force the thread count for subsequent parallel_for calls; 0 restores the
/// default.  The pool grows to threads - 1 helpers when asked for more than
/// it has.  Mostly used by tests and benches.
void set_parallelism(int threads) noexcept;

namespace detail {

/// One parallel_for call while it is published to the pool.  It lives on
/// the caller's stack; run_loop() unpublishes it and waits for every
/// helper inside it to leave before returning.
class Loop {
 public:
  template <typename Body>
  Loop(std::size_t begin, std::size_t end, const Body& body) noexcept
      : next_(begin), end_(end), body_(&body), invoke_(&invoke<Body>) {}

  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  bool has_unclaimed() const noexcept {
    return next_.load(std::memory_order_relaxed) < end_;
  }

  /// Claims and runs indices until none is left.  A throwing index is
  /// recorded (the first one wins) and the loop carries on.
  void run() noexcept;

  /// Rethrows the first recorded exception, if any.  Only the caller,
  /// after every helper has left.
  void rethrow_first_error() const;

  /// Helpers currently inside run(); guarded by the pool mutex.
  int helpers = 0;
  /// Signalled (under the pool mutex) when `helpers` drops to zero.
  std::condition_variable helpers_left;

 private:
  template <typename Body>
  static void invoke(const void* body, std::size_t i) {
    (*static_cast<const Body*>(body))(i);
  }

  std::atomic<std::size_t> next_;
  const std::size_t end_;
  const void* const body_;
  void (*const invoke_)(const void*, std::size_t);
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  ///< written once, by the first thrower
};

/// Publishes `loop`, runs its indices on the calling thread alongside idle
/// helpers, waits for the helpers to leave, and rethrows the first error.
void run_loop(Loop& loop, int threads);

}  // namespace detail

/// Runs body(i) for i in [begin, end), claiming indices one at a time in
/// increasing order.  The first exception a body throws is rethrown on the
/// calling thread once every claimed index has finished.  A single-index
/// range, or a thread count of 1, runs serially on the caller.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body) {
  if (begin >= end) return;
  const int threads = hardware_parallelism();
  if (threads <= 1 || end - begin == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  detail::Loop loop(begin, end, body);
  detail::run_loop(loop, threads);
}

/// A parallel_for_rows fill of at most this many rows runs serially.
inline constexpr std::size_t kRowBlock = 64;

namespace detail {

/// First row of block `b` when a triangular fill of `rows` rows -- row i
/// holds rows - i cells -- is cut into `blocks` blocks of equal cell
/// count: the least i whose preceding rows hold b / blocks of the cells.
inline std::size_t triangle_block_start(std::size_t rows, std::size_t blocks,
                                        std::size_t b) {
  const auto cells_before = [rows](std::size_t i) {
    return i * rows - i * (i - 1) / 2;
  };
  const std::size_t want = b * (rows * (rows + 1) / 2);
  std::size_t lo = 0;
  std::size_t hi = rows;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cells_before(mid) * blocks >= want) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace detail

/// Runs row(i) for i in [0, rows), where row i fills rows - i cells (the
/// triangular table fills), as a parallel_for over ceil(rows / kRowBlock)
/// blocks of consecutive rows that hold equal cell counts, so a fill of at
/// most kRowBlock rows is one block and runs serially.  Blocks are claimed
/// in ascending order, the largest rows first.  For fills whose rows are
/// independent of each other; each row runs whole on one thread.
template <typename Row>
void parallel_for_rows(std::size_t rows, const Row& row) {
  const std::size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  parallel_for(0, blocks, [&](std::size_t b) {
    const std::size_t hi = detail::triangle_block_start(rows, blocks, b + 1);
    for (std::size_t i = detail::triangle_block_start(rows, blocks, b);
         i < hi; ++i) {
      row(i);
    }
  });
}

}  // namespace chainckpt::util
