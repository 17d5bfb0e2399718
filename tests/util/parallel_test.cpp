#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

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

TEST(Parallelism, ForcedCountIsReported) {
  set_parallelism(3);
  EXPECT_EQ(hardware_parallelism(), 3);
  set_parallelism(0);
  EXPECT_GE(hardware_parallelism(), 1);
}

}  // namespace
}  // namespace chainckpt::util
