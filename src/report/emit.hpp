// Emission of figure data as text tables.
#pragma once

#include <string>
#include <vector>

#include "report/series.hpp"

namespace chainckpt::report {

/// Renders the series as a wide text table: one row per x value (the union
/// of all x values), one column per series; missing points print "-".
std::string series_table(const std::string& x_header,
                         const std::vector<Series>& series, int precision = 4);

}  // namespace chainckpt::report
