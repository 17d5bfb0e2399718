// Scenario-matrix harness: builds the cross-product battery
// (scenario/matrix.hpp), runs it through the three-lane runner
// (scenario/runner.hpp), and emits the machine-readable ScenarioReport.
//
// Modes:
//   --mode full    the full >= 200-cell matrix (the labeled `slow` sweep)
//   --mode smoke   the reduced CI matrix lane (~30 cells, seconds)
//   --mode golden  re-solve the checked-in golden corpus and compare the
//                  pinned digests (exit 1 on any mismatch)
//
// Utilities:
//   --list                 print cell names and exit
//   --out <path>           write the report JSON (default BENCH_scenarios.json
//                          next to the binary; "-" prints to stdout)
//   --seed <n>             master seed (cell seeds derive from it by name)
//   --timing               include wall-clock service-lane metrics (opts the
//                          report OUT of byte determinism)
//   --serial               run on one thread via util::set_parallelism(1)
//                          (identical bytes either way)
//   --write-golden <dir>   re-pin the golden corpus: for every *.json spec in
//                          <dir>, solve and rewrite its `expected` digests
//   --spec-dir <dir>       sweep a user-supplied spec corpus (every *.json,
//                          sorted by filename) instead of the generated
//                          cross; combines with --mode full/smoke gates
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "scenario/matrix.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec_io.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace {

using namespace chainckpt;

int write_report(const scenario::ScenarioReport& report,
                 const std::string& out_path) {
  const std::string json = scenario::report_to_json(report);
  if (out_path == "-") {
    std::cout << json;
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  out << json;
  std::cout << "  [json] " << out_path << '\n';
  return 0;
}

void print_summary(const scenario::ScenarioReport& report) {
  const scenario::MatrixSummary& s = report.summary;
  std::printf(
      "cells %zu | ok %zu | flagged %zu (diverged %zu) | in-model "
      "divergences %zu | dp config mismatches %zu | service cells %zu\n",
      s.cells, s.ok_cells, s.flagged_cells, s.diverged_flagged,
      s.diverged_in_model, s.dp_config_mismatches, s.service_cells);
  std::printf("report digest %s\n", scenario::report_digest(report).c_str());
}

/// Solves every golden spec and either checks or rewrites its pins.
int run_golden(const std::string& dir, bool rewrite,
               const scenario::RunnerOptions& ropts) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    std::cerr << "golden directory not found: " << dir << '\n';
    return 1;
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::cerr << "no *.json specs in " << dir << '\n';
    return 1;
  }

  int failures = 0;
  for (const std::string& path : paths) {
    scenario::ScenarioSpec spec = scenario::load_spec(path);
    const scenario::CellReport cell = scenario::run_cell(spec, ropts);
    if (rewrite) {
      spec.expected.clear();
      for (const scenario::DpLaneResult& dp : cell.dp) {
        spec.expected.push_back({dp.algorithm, dp.digest, dp.makespan_bits});
      }
      scenario::save_spec(path, spec);
      std::printf("  [pin] %s (%zu algorithms)\n", path.c_str(),
                  spec.expected.size());
      continue;
    }
    if (spec.expected.empty()) {
      std::printf("FAIL %s: no expected digests (run --write-golden)\n",
                  path.c_str());
      ++failures;
      continue;
    }
    for (const scenario::ExpectedDigest& pin : spec.expected) {
      const scenario::DpLaneResult* found = nullptr;
      for (const scenario::DpLaneResult& dp : cell.dp) {
        if (dp.algorithm == pin.algorithm) found = &dp;
      }
      if (!found) {
        std::printf("FAIL %s: algorithm %s not solved\n", path.c_str(),
                    pin.algorithm.c_str());
        ++failures;
      } else if (found->digest != pin.digest ||
                 found->makespan_bits != pin.makespan_bits) {
        std::printf("FAIL %s: %s digest %s (bits %s), pinned %s (bits %s)\n",
                    path.c_str(), pin.algorithm.c_str(),
                    found->digest.c_str(), found->makespan_bits.c_str(),
                    pin.digest.c_str(), pin.makespan_bits.c_str());
        ++failures;
      }
    }
    if (!cell.ok) {
      std::printf("FAIL %s: cell not ok (configs/divergence)\n", path.c_str());
      ++failures;
    }
  }
  std::printf("golden corpus: %zu specs, %d failure(s)\n", paths.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser parser;
  parser.add_option("mode", "smoke", "full | smoke | golden");
  parser.add_option("out", "BENCH_scenarios.json",
                    "report path ('-' for stdout)");
  parser.add_option("seed", "", "master seed override");
  parser.add_option("golden-dir", "tests/scenario/golden",
                    "golden corpus directory (golden / --write-golden)");
  parser.add_option("write-golden", "",
                    "rewrite the expected digests of every spec in <dir>");
  parser.add_option("spec-dir", "",
                    "run the specs in <dir> instead of the generated matrix");
  parser.add_flag("timing", "include wall-clock service metrics");
  parser.add_flag("serial", "run on one thread");
  parser.add_flag("list", "print cell names and exit");
  scenario::MatrixOptions mopts;
  try {
    parser.parse(argc, argv);
    if (!parser.get("seed").empty()) {
      mopts.master_seed =
          static_cast<std::uint64_t>(parser.get_int("seed"));
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help_text(
        "bench_scenarios -- scenario matrix & failure-regime battery");
    return 0;
  }

  scenario::RunnerOptions ropts;
  ropts.include_timing = parser.get_flag("timing");
  ropts.master_seed = mopts.master_seed;
  if (parser.get_flag("serial")) util::set_parallelism(1);

  const std::string mode = parser.get("mode");
  if (!parser.get("write-golden").empty()) {
    return run_golden(parser.get("write-golden"), /*rewrite=*/true, ropts);
  }
  if (mode == "golden") {
    return run_golden(parser.get("golden-dir"), /*rewrite=*/false, ropts);
  }
  if (mode != "full" && mode != "smoke") {
    std::cerr << "unknown --mode " << mode << '\n';
    return 2;
  }
  mopts.smoke = mode == "smoke";
  mopts.spec_dir = parser.get("spec-dir");

  std::vector<scenario::ScenarioSpec> specs;
  try {
    specs = scenario::build_matrix(mopts);  // loads --spec-dir, if given
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
  if (parser.get_flag("list")) {
    for (const scenario::ScenarioSpec& spec : specs) {
      std::cout << spec.name << '\n';
    }
    std::cout << specs.size() << " cells\n";
    return 0;
  }

  std::printf("running %zu cells (%s matrix, seed %llu)...\n", specs.size(),
              mode.c_str(),
              static_cast<unsigned long long>(mopts.master_seed));
  const scenario::ScenarioReport report =
      scenario::run_matrix(specs, ropts);
  print_summary(report);
  const int rc = write_report(report, parser.get("out"));
  if (rc != 0) return rc;

  // The matrix's own acceptance gates: bit-identical DP configurations
  // everywhere, and no divergence where the model's assumptions hold.
  if (report.summary.dp_config_mismatches != 0 ||
      report.summary.diverged_in_model != 0) {
    std::cerr << "MATRIX FAILURE: dp_config_mismatches="
              << report.summary.dp_config_mismatches
              << " diverged_in_model=" << report.summary.diverged_in_model
              << '\n';
    return 1;
  }
  return 0;
}
