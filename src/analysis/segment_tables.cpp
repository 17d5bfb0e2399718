#include "analysis/segment_tables.hpp"

#include "analysis/segment_math.hpp"
#include "util/parallel.hpp"

namespace chainckpt::analysis {

SegmentTables::SegmentTables(const chain::TaskChain& chain,
                             const platform::CostModel& costs)
    : n_(chain.size()),
      cells_((n_ + 1) * (n_ + 2) / 2),
      // Default-initialized, i.e. left unwritten: the fill below writes
      // every cell once.
      block_(new double[kStreams * cells_ + n_ + 1]) {
  double* const exvg = block_.get();
  double* const b = exvg + cells_;
  double* const c = b + cells_;
  double* const d = c + cells_;
  double* const fs = d + cells_;
  double* const vg = fs + cells_;
  vg[0] = 0.0;
  for (std::size_t i = 1; i <= n_; ++i) vg[i] = costs.v_guaranteed_after(i);
  const IntervalSource source(chain, costs);
  util::parallel_for_rows(n_ + 1, [&](std::size_t i) {
    source.for_each_in_row<false>(i, [&](std::size_t j, const Interval& seg) {
      const std::size_t cm = j * (j + 1) / 2 + i;
      const double es = seg.exp_s();
      exvg[cm] = es * (seg.x + vg[j]);
      b[cm] = es * seg.em1_f;
      c[cm] = seg.em1_fs();
      d[cm] = seg.em1_s;
      fs[cm] = seg.exp_fs();
    });
  });
}

SegmentRows::SegmentRows(const chain::TaskChain& chain,
                         const platform::CostModel& costs)
    : n_(chain.size()) {
  const std::size_t stride = n_ + 1;
  const std::size_t cells = stride * stride;
  vp_.assign(stride, 0.0);
  for (std::size_t i = 1; i <= n_; ++i) vp_[i] = costs.v_partial_after(i);
  for (auto* v : {&exv_, &b_, &c_, &d_, &tl_, &pf_, &ef_, &w_}) {
    v->assign(cells, 0.0);
  }
  const IntervalSource source(chain, costs);
  util::parallel_for_rows(n_ + 1, [&](std::size_t i) {
    source.for_each_in_row<true>(i, [&](std::size_t j, const Interval& seg) {
      const std::size_t rm = i * stride + j;
      const double es = seg.exp_s();
      exv_[rm] = es * (seg.x + vp_[j]);
      b_[rm] = es * seg.em1_f;
      c_[rm] = seg.em1_fs();
      d_[rm] = seg.em1_s;
      tl_[rm] = seg.t_lost;
      pf_[rm] = seg.p_fail();
      ef_[rm] = seg.exp_f();
      w_[rm] = seg.w;
    });
  });
}

}  // namespace chainckpt::analysis
