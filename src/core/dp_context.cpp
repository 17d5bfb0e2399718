#include "core/dp_context.hpp"

#include <utility>

#include "util/assert.hpp"

namespace chainckpt::core {

namespace {

void check_context(const chain::TaskChain& chain,
                   const platform::CostModel& costs, std::size_t max_n) {
  CHAINCKPT_REQUIRE(!chain.empty(), "optimizer needs a non-empty chain");
  CHAINCKPT_REQUIRE(chain.size() <= max_n,
                    "chain longer than max_n (the multi-level DPs are "
                    "O(n^4) and O(n^6) time); raise max_n explicitly");
  if (!costs.is_uniform()) {
    // Per-position cost models must cover every task of this chain; probe
    // the last position so failures surface at construction time.
    (void)costs.c_disk_after(chain.size());
  }
}

}  // namespace

DpContext::DpContext(chain::TaskChain chain, platform::CostModel costs,
                     std::size_t max_n, bool /*ignored*/)
    : chain_(std::move(chain)), costs_(std::move(costs)) {
  check_context(chain_, costs_, max_n);
  seg_tables_ =
      std::make_shared<const analysis::SegmentTables>(chain_, costs_);
}

DpContext::DpContext(chain::TaskChain chain, platform::CostModel costs,
                     std::shared_ptr<const analysis::SegmentTables> seg_tables,
                     std::size_t max_n)
    : chain_(std::move(chain)),
      costs_(std::move(costs)),
      seg_tables_(std::move(seg_tables)) {
  check_context(chain_, costs_, max_n);
  CHAINCKPT_REQUIRE(seg_tables_ != nullptr,
                    "shared-table DpContext needs a non-null table");
  CHAINCKPT_REQUIRE(seg_tables_->n() == chain_.size(),
                    "shared table was built for a different chain length");
}

}  // namespace chainckpt::core
