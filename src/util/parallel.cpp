#include "util/parallel.hpp"

#include <atomic>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace chainckpt::util {

namespace {
std::atomic<int> g_forced_threads{0};
}

int hardware_parallelism() noexcept {
  const int forced = g_forced_threads.load();
  if (forced > 0) return forced;
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_parallelism(int threads) noexcept {
  g_forced_threads.store(threads < 0 ? 0 : threads);
}

}  // namespace chainckpt::util
