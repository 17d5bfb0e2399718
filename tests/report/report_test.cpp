#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "report/ascii_chart.hpp"
#include "report/emit.hpp"
#include "report/series.hpp"

namespace chainckpt::report {
namespace {

Series ramp(const std::string& name, double slope) {
  Series s;
  s.name = name;
  for (int i = 0; i <= 10; ++i)
    s.add(static_cast<double>(i), slope * i + 1.0);
  return s;
}

TEST(Series, AddAndBounds) {
  const Series s = ramp("r", 2.0);
  EXPECT_EQ(s.size(), 11u);
  EXPECT_DOUBLE_EQ(s.min_x(), 0.0);
  EXPECT_DOUBLE_EQ(s.max_x(), 10.0);
  EXPECT_DOUBLE_EQ(s.min_y(), 1.0);
  EXPECT_DOUBLE_EQ(s.max_y(), 21.0);
}

TEST(Series, EmptyBoundsThrow) {
  Series s;
  EXPECT_THROW(s.min_x(), std::invalid_argument);
  EXPECT_THROW(s.max_y(), std::invalid_argument);
}

TEST(AsciiChart, ContainsMarkersTitleAndLegend) {
  ChartOptions options;
  options.title = "Makespan vs n";
  options.x_label = "tasks";
  const std::string chart =
      render_chart({ramp("ADV*", 1.0), ramp("ADMV", 0.5)}, options);
  EXPECT_NE(chart.find("Makespan vs n"), std::string::npos);
  EXPECT_NE(chart.find("o = ADV*"), std::string::npos);
  EXPECT_NE(chart.find("x = ADMV"), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find("(tasks)"), std::string::npos);
}

TEST(AsciiChart, HandlesFlatSeries) {
  Series flat;
  flat.name = "flat";
  flat.add(1.0, 5.0);
  flat.add(2.0, 5.0);
  const std::string chart = render_chart({flat}, {});
  EXPECT_NE(chart.find("flat"), std::string::npos);
}

TEST(AsciiChart, SinglePointSeries) {
  Series one;
  one.name = "pt";
  one.add(3.0, 7.0);
  EXPECT_NO_THROW(render_chart({one}, {}));
}

TEST(AsciiChart, RejectsEmptyInput) {
  EXPECT_THROW(render_chart({}, {}), std::invalid_argument);
}

TEST(Emit, SeriesTableAlignsOnXUnion) {
  Series a;
  a.name = "A";
  a.add(1.0, 10.0);
  a.add(2.0, 20.0);
  Series b;
  b.name = "B";
  b.add(2.0, 200.0);
  b.add(3.0, 300.0);
  const std::string table = series_table("n", {a, b}, 1);
  // x = 1 has no B value, x = 3 no A value.
  EXPECT_NE(table.find("| n "), std::string::npos);
  EXPECT_NE(table.find("10.0"), std::string::npos);
  EXPECT_NE(table.find("200.0"), std::string::npos);
  EXPECT_NE(table.find("-"), std::string::npos);
}

}  // namespace
}  // namespace chainckpt::report
