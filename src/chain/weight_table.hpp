// Precomputed interval quantities for the dynamic programs.
//
// Every DP transition evaluates exponentials of lambda * W_{i,j} where
// lambda * W spans 1e-6..1e2.  Computing exp() inside the O(n^4)/O(n^6)
// loops would dominate the runtime, so this table materializes the O(n^2)
// triangular matrices once per (chain, rates) pair.
//
// The stored quantity is expm1(lambda * W) rather than exp(lambda * W):
// the closed forms of the paper multiply (e^{lambda W} - 1) by recovery
// costs, and subtracting 1 from a stored exponential would lose most
// significant bits precisely in the realistic small-rate regime.
#pragma once

#include <cstddef>
#include <vector>

#include "chain/chain.hpp"

namespace chainckpt::chain {

class WeightTable {
 public:
  WeightTable(const TaskChain& chain, double lambda_f, double lambda_s);

  std::size_t n() const noexcept { return n_; }
  double lambda_f() const noexcept { return lambda_f_; }
  double lambda_s() const noexcept { return lambda_s_; }

  /// W_{i,j} for 0 <= i <= j <= n.
  double weight(std::size_t i, std::size_t j) const noexcept {
    return prefix_[j] - prefix_[i];
  }
  /// expm1(lambda_f * W_{i,j}) = e^{lambda_f W} - 1, full precision.
  double em1_f(std::size_t i, std::size_t j) const noexcept {
    return em1_f_[idx(i, j)];
  }
  /// expm1(lambda_s * W_{i,j}).
  double em1_s(std::size_t i, std::size_t j) const noexcept {
    return em1_s_[idx(i, j)];
  }
  /// e^{lambda_f * W_{i,j}}.
  double exp_f(std::size_t i, std::size_t j) const noexcept {
    return 1.0 + em1_f_[idx(i, j)];
  }
  /// e^{lambda_s * W_{i,j}}.
  double exp_s(std::size_t i, std::size_t j) const noexcept {
    return 1.0 + em1_s_[idx(i, j)];
  }
  /// expm1((lambda_f + lambda_s) * W_{i,j}), assembled without cancellation
  /// as em1_f + em1_s + em1_f * em1_s.
  double em1_fs(std::size_t i, std::size_t j) const noexcept {
    const double a = em1_f_[idx(i, j)];
    const double b = em1_s_[idx(i, j)];
    return a + b + a * b;
  }
  /// e^{(lambda_f + lambda_s) * W_{i,j}}.
  double exp_fs(std::size_t i, std::size_t j) const noexcept {
    return 1.0 + em1_fs(i, j);
  }

  /// Bytes held by the triangular matrices (BatchSolver cache accounting).
  std::size_t resident_bytes() const noexcept {
    return (prefix_.capacity() + em1_f_.capacity() + em1_s_.capacity()) *
           sizeof(double);
  }

 private:
  std::size_t idx(std::size_t i, std::size_t j) const noexcept {
    return i * (n_ + 1) + j;
  }

  std::size_t n_;
  double lambda_f_;
  double lambda_s_;
  std::vector<double> prefix_;
  std::vector<double> em1_f_;
  std::vector<double> em1_s_;
};

}  // namespace chainckpt::chain
