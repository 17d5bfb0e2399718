#include "chain/weight_table.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace chainckpt::chain {

WeightTable::WeightTable(const TaskChain& chain, double lambda_f,
                         double lambda_s)
    : n_(chain.size()), lambda_f_(lambda_f), lambda_s_(lambda_s) {
  CHAINCKPT_REQUIRE(lambda_f >= 0.0 && lambda_s >= 0.0,
                    "error rates must be non-negative");
  prefix_.assign(n_ + 1, 0.0);
  for (std::size_t i = 1; i <= n_; ++i)
    prefix_[i] = prefix_[i - 1] + chain.weight(i);

  em1_f_.assign((n_ + 1) * (n_ + 1), 0.0);
  em1_s_.assign((n_ + 1) * (n_ + 1), 0.0);
  util::parallel_for_rows(n_ + 1, [&](std::size_t i) {
    for (std::size_t j = i; j <= n_; ++j) {
      const double w = prefix_[j] - prefix_[i];
      em1_f_[idx(i, j)] = std::expm1(lambda_f * w);
      em1_s_[idx(i, j)] = std::expm1(lambda_s * w);
    }
  });
}

}  // namespace chainckpt::chain
