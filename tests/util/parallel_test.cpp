#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace chainckpt::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  parallel_for(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, NonZeroBegin) {
  std::atomic<long> sum{0};
  parallel_for(10, 20, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  const std::size_t n = 500;
  auto compute = [&] {
    std::vector<double> out(n);
    parallel_for(0, n, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    return out;
  };
  set_parallelism(1);
  const auto serial = compute();
  set_parallelism(4);
  const auto parallel = compute();
  set_parallelism(0);  // restore default
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, AcceptsMoveOnlyCallable) {
  // The body is taken by reference and called through its own type, never
  // copied into a std::function, so a move-only closure compiles.
  auto counter = std::make_unique<std::atomic<int>>(0);
  std::atomic<int>* const observed = counter.get();
  const auto move_only = [c = std::move(counter)](std::size_t) {
    c->fetch_add(1);
  };
  parallel_for(0, 4, move_only);
  EXPECT_EQ(observed->load(), 4);
}

TEST(ParallelFor, NestedLoopRunsOnIdleThreads) {
  // Only outer index 0 has work, so the thread running it is the outer
  // loop's only busy thread; the loop nested in it must still reach the
  // idle ones (the shape of a solve inside a service dispatch thread).
  // Index 0 holds its thread until another thread has claimed an index,
  // so the outcome does not depend on how fast helpers wake (the bound
  // only ends a failing run).
  set_parallelism(4);
  std::mutex mutex;
  std::condition_variable claimed;
  std::set<std::thread::id> threads;
  parallel_for(0, 2, [&](std::size_t outer) {
    if (outer != 0) return;
    parallel_for(0, 16, [&](std::size_t i) {
      std::unique_lock<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
      claimed.notify_all();
      if (i == 0) {
        claimed.wait_for(lock, std::chrono::seconds(20),
                         [&] { return threads.size() >= 2; });
      }
    });
  });
  set_parallelism(0);
  EXPECT_GE(threads.size(), 2u);
}

TEST(ParallelFor, HelperExceptionIsRethrownAfterEveryClaimedIndexFinishes) {
  set_parallelism(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> thrown{false};
  try {
    parallel_for(0, 64, [&](std::size_t i) {
      started.fetch_add(1);
      if (std::this_thread::get_id() != caller && !thrown.exchange(true)) {
        finished.fetch_add(1);
        throw std::runtime_error("helper");
      }
      // Index 0 holds the caller (when it claimed it) until a helper has
      // thrown; the sleep keeps claimed indices in flight when it does.
      for (int spin = 0; i == 0 && !thrown.load() && spin < 20000; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "no index ran on a helper";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "helper");
    EXPECT_EQ(started.load(), finished.load());
  }
  set_parallelism(0);
}

TEST(ParallelFor, ThreeNestingLevelsCompleteAtEveryThreadCount) {
  for (const int threads : {1, 4, 8}) {
    set_parallelism(threads);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::atomic<int>> visits(4 * 5 * 6);
    std::atomic<bool> off_caller{false};
    parallel_for(0, 4, [&](std::size_t a) {
      parallel_for(0, 5, [&](std::size_t b) {
        parallel_for(0, 6, [&](std::size_t c) {
          visits[(a * 5 + b) * 6 + c].fetch_add(1);
          if (std::this_thread::get_id() != caller) off_caller.store(true);
        });
      });
    });
    for (const auto& v : visits) {
      EXPECT_EQ(v.load(), 1) << threads;
    }
    if (threads == 1) {
      EXPECT_FALSE(off_caller.load());
    }
  }
  set_parallelism(0);
}

TEST(ParallelForRows, BlocksSplitTheTriangleIntoEqualCellCounts) {
  // Row i of a triangular fill holds rows - i cells.  The blocks tile the
  // rows in order, and each holds its share of the cells to within one
  // row: the cut lands on the first row that reaches the share.
  for (const std::size_t rows : {1, 64, 65, 128, 129, 301, 801}) {
    const std::size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
    const std::size_t total = rows * (rows + 1) / 2;
    std::size_t before = 0;  // cells of the rows before block b
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t lo = detail::triangle_block_start(rows, blocks, b);
      const std::size_t hi = detail::triangle_block_start(rows, blocks, b + 1);
      ASSERT_LT(lo, hi) << "rows " << rows << " block " << b;
      for (std::size_t i = lo; i < hi; ++i) before += rows - i;
      // before * blocks reaches (b + 1) * total at row hi, not at hi - 1.
      EXPECT_GE(before * blocks, (b + 1) * total) << rows << " " << b;
      EXPECT_LT((before - (rows - (hi - 1))) * blocks, (b + 1) * total)
          << rows << " " << b;
    }
    EXPECT_EQ(detail::triangle_block_start(rows, blocks, blocks), rows);
  }
}

TEST(ParallelForRows, VisitsEveryRowOnceAndSmallFillsStaySerial) {
  set_parallelism(4);
  const auto caller = std::this_thread::get_id();
  for (const std::size_t rows : {0, 1, 64, 65, 801}) {
    std::vector<std::atomic<int>> visits(rows);
    std::atomic<int> off_caller{0};
    parallel_for_rows(rows, [&](std::size_t i) {
      visits[i].fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    });
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "rows " << rows << " row " << i;
    }
    if (rows <= kRowBlock) EXPECT_EQ(off_caller.load(), 0) << rows;
  }
  set_parallelism(0);
}

TEST(Parallelism, ForcedCountIsReported) {
  set_parallelism(3);
  EXPECT_EQ(hardware_parallelism(), 3);
  set_parallelism(0);
  EXPECT_GE(hardware_parallelism(), 1);
}

#if defined(__linux__)
TEST(Parallelism, DefaultIsTheAffinityMaskSize) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  set_parallelism(0);
  EXPECT_EQ(hardware_parallelism(), CPU_COUNT(&set));
}
#endif

}  // namespace
}  // namespace chainckpt::util
