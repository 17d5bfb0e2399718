#include <gtest/gtest.h>

#include <stdexcept>

#include "util/table.hpp"

namespace chainckpt::util {
namespace {

TEST(TextTable, RejectsEmptyHeaders) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"n", "makespan"});
  t.add_row({"1", "1.1144"});
  t.add_row({"50", "1.0402"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| n "), std::string::npos);
  EXPECT_NE(out.find("makespan"), std::string::npos);
  EXPECT_NE(out.find("1.0402"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

}  // namespace
}  // namespace chainckpt::util
