// The paper's evaluation (Section IV) in one run, on its full grids:
//
//   Table I    platform parameters, plus the derived MTBFs the text quotes
//              ("Hera ... 12.2 days for fail-stop errors and 3.4 days for
//              silent errors", "Coastal ... 28.8 days ... 5.8 days");
//   Figure 5   Uniform pattern on the four platforms: normalized makespan
//              vs n for ADV*, ADMV*, ADMV (n = 1..50), and the disk,
//              memory, guaranteed and partial counts each algorithm
//              places (n = 5, 10, ..., 50);
//   Figure 6   ADMV's placements on each platform, Uniform, n = 50;
//   Figure 7   Decrease pattern on Hera and Coastal SSD: makespan vs n,
//              ADMV counts vs n, ADMV placement map at n = 50;
//   Figure 8   the same three columns for the HighLow pattern (first 10%
//              of the tasks carry 60% of the weight).
//
//   $ ./bench_paper
//
// Takes no options; any argument is an error (exit status 2).
#include <iostream>
#include <string>
#include <vector>

#include "chain/patterns.hpp"
#include "core/optimizer.hpp"
#include "plan/render.hpp"
#include "platform/platform.hpp"
#include "platform/registry.hpp"
#include "report/ascii_chart.hpp"
#include "report/emit.hpp"
#include "report/experiments.hpp"
#include "util/table.hpp"

namespace {

using namespace chainckpt;

void table1() {
  std::cout << "== Table I: platform parameters ==\n\n";
  util::TextTable table({"platform", "#nodes", "lambda_f (/s)",
                         "lambda_s (/s)", "C_D (s)", "C_M (s)", "V* (s)",
                         "V (s)", "recall r", "MTBF_f (days)",
                         "MTBF_s (days)"});
  for (const auto& p : platform::table1_platforms()) {
    table.add_row({p.name, std::to_string(p.nodes),
                   util::TextTable::num(p.lambda_f * 1e7, 3) + "e-7",
                   util::TextTable::num(p.lambda_s * 1e6, 3) + "e-6",
                   util::TextTable::num(p.c_disk, 1),
                   util::TextTable::num(p.c_mem, 1),
                   util::TextTable::num(p.v_guaranteed, 1),
                   util::TextTable::num(p.v_partial, 3),
                   util::TextTable::num(p.recall, 2),
                   util::TextTable::num(
                       p.mtbf_fail_stop() / platform::kSecondsPerDay, 1),
                   util::TextTable::num(
                       p.mtbf_silent() / platform::kSecondsPerDay, 1)});
  }
  std::cout << table.render() << '\n';
  std::cout << "Conventions (Section IV): R_D = C_D, R_M = C_M, V* = C_M, "
               "V = V*/100, r = 0.8.\n";
  std::cout << "Paper quotes reproduced: Hera MTBF 12.2d/3.4d, Coastal "
               "28.8d/5.8d.\n";
}

/// Column 1 of Figures 5, 7 and 8: the three algorithms' normalized
/// makespan vs n, as a table and as a chart.
void makespan_curves(const platform::Platform& plat,
                     const report::EvaluationSetup& setup,
                     const std::string& title) {
  std::vector<report::Series> curves;
  for (core::Algorithm a : core::paper_algorithms()) {
    curves.push_back(report::makespan_series(
        plat, setup, a, report::makespan_task_counts()));
  }
  std::cout << report::series_table("n", curves, 5) << '\n';
  report::ChartOptions chart;
  chart.title = title;
  chart.x_label = "number of tasks";
  std::cout << report::render_chart(curves, chart) << '\n';
}

void figure5() {
  const report::EvaluationSetup setup;  // uniform, W = 25000s
  for (const auto& plat : platform::table1_platforms()) {
    std::cout << "==== Figure 5, platform " << plat.name << " ====\n\n";
    makespan_curves(plat, setup,
                    "Normalized makespan vs #tasks (" + plat.name + ")");
    for (core::Algorithm a : core::paper_algorithms()) {
      const auto sweep = report::count_sweep(plat, setup, a,
                                             report::count_task_counts());
      std::cout << "-- Algorithm " << core::to_string(a) << " on "
                << plat.name << " (interior counts) --\n";
      std::cout << report::series_table("n", sweep.all(), 0) << '\n';
    }
  }
}

void figure6() {
  const report::EvaluationSetup setup;
  for (const auto& plat : platform::table1_platforms()) {
    const auto result =
        report::placement(plat, setup, core::Algorithm::kADMV, 50);
    std::cout << plan::render_figure(
        result.plan, "Platform " + plat.name + " with ADMV and n=50");
    const auto counts = result.plan.interior_counts();
    std::cout << "interior counts: disk=" << counts.disk
              << " memory=" << counts.memory
              << " guaranteed=" << counts.guaranteed
              << " partial=" << counts.partial << "; normalized makespan="
              << result.expected_makespan / setup.total_weight << "\n\n";
  }
  std::cout << "Paper observation check: no additional disk checkpoints "
               "on any platform; Coastal SSD favors partial "
               "verifications over guaranteed ones.\n";
}

/// Figures 7 and 8: one weight pattern on Hera and Coastal SSD.
void pattern_figure(int figure, chain::Pattern pattern,
                    const std::string& label, const char* observation) {
  report::EvaluationSetup setup;
  setup.pattern = pattern;
  for (const auto& plat : {platform::hera(), platform::coastal_ssd()}) {
    std::cout << "==== Figure " << figure << ", platform " << plat.name
              << " (" << label << ") ====\n\n";
    makespan_curves(plat, setup,
                    "Normalized makespan vs #tasks (" + plat.name + ", " +
                        label + ")");

    const auto sweep = report::count_sweep(plat, setup, core::Algorithm::kADMV,
                                           report::count_task_counts());
    std::cout << "-- ADMV interior counts on " << plat.name << " --\n";
    std::cout << report::series_table("n", sweep.all(), 0) << '\n';

    const auto result =
        report::placement(plat, setup, core::Algorithm::kADMV, 50);
    std::cout << plan::render_figure(
                     result.plan,
                     "Platform " + plat.name + " with ADMV and n=50")
              << '\n';
  }
  std::cout << "Paper observation check: " << observation << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "bench_paper takes no options (got " << argv[1] << ")\n";
    return 2;
  }
  table1();
  figure5();
  figure6();
  pattern_figure(7, chain::Pattern::kDecrease, "Decrease",
                 "resilience concentrates on the large early tasks; the "
                 "small tail tasks are not even verified.");
  pattern_figure(8, chain::Pattern::kHighLow, "HighLow",
                 "on Hera the cheap memory checkpoints become mandatory "
                 "for the five large tasks; on Coastal SSD they stay too "
                 "expensive.");
  return 0;
}
