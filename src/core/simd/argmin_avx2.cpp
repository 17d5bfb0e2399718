// The 4-lane (AVX2) instantiation of the vector argmin kernels.  Built
// with -mavx2 when the toolchain accepts it (see CMakeLists); without it
// this file compiles to baseline code and avx2_kernels_compiled() is
// false, so dispatch never selects the tier.
#include "core/simd/argmin_vector.hpp"

namespace chainckpt::core::simd {

template struct VectorKernels<4>;

bool detail::avx2_kernels_compiled() noexcept {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace chainckpt::core::simd
