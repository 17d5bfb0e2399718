// The 8-lane (AVX-512F/VL) instantiation of the vector argmin kernels.
// Built with -mavx512f -mavx512vl when the toolchain accepts them (see
// CMakeLists); VL carries the 256-bit int32 blend of the fold kernel.
// Without the flags this file compiles to baseline code and
// avx512_kernels_compiled() is false, so dispatch never selects the tier.
#include "core/simd/argmin_vector.hpp"

namespace chainckpt::core::simd {

template struct VectorKernels<8>;

bool detail::avx512_kernels_compiled() noexcept {
#if defined(__AVX512F__) && defined(__AVX512VL__)
  return true;
#else
  return false;
#endif
}

}  // namespace chainckpt::core::simd
