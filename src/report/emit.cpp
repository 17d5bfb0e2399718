#include "report/emit.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "util/table.hpp"

namespace chainckpt::report {

std::string series_table(const std::string& x_header,
                         const std::vector<Series>& series, int precision) {
  // Union of x values, sorted; map each series' points for lookup.
  std::vector<double> xs;
  for (const auto& s : series) xs.insert(xs.end(), s.x.begin(), s.x.end());
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  std::vector<std::map<double, double>> lookup(series.size());
  for (std::size_t si = 0; si < series.size(); ++si) {
    for (std::size_t k = 0; k < series[si].size(); ++k)
      lookup[si][series[si].x[k]] = series[si].y[k];
  }

  std::vector<std::string> headers{x_header};
  for (const auto& s : series) headers.push_back(s.name);
  util::TextTable table(headers);
  for (double x : xs) {
    std::vector<std::string> row;
    std::ostringstream xv;
    xv << x;
    row.push_back(xv.str());
    for (std::size_t si = 0; si < series.size(); ++si) {
      auto it = lookup[si].find(x);
      row.push_back(it == lookup[si].end()
                        ? "-"
                        : util::TextTable::num(it->second, precision));
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

}  // namespace chainckpt::report
