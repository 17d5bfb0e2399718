#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "platform/registry.hpp"

namespace chainckpt::platform {
namespace {

TEST(Registry, TableOneValuesAreExact) {
  const Platform h = hera();
  EXPECT_EQ(h.nodes, 256u);
  EXPECT_DOUBLE_EQ(h.lambda_f, 9.46e-7);
  EXPECT_DOUBLE_EQ(h.lambda_s, 3.38e-6);
  EXPECT_DOUBLE_EQ(h.c_disk, 300.0);
  EXPECT_DOUBLE_EQ(h.c_mem, 15.4);

  const Platform a = atlas();
  EXPECT_EQ(a.nodes, 512u);
  EXPECT_DOUBLE_EQ(a.lambda_f, 5.19e-7);
  EXPECT_DOUBLE_EQ(a.lambda_s, 7.78e-6);
  EXPECT_DOUBLE_EQ(a.c_disk, 439.0);
  EXPECT_DOUBLE_EQ(a.c_mem, 9.1);

  const Platform c = coastal();
  EXPECT_EQ(c.nodes, 1024u);
  EXPECT_DOUBLE_EQ(c.lambda_f, 4.02e-7);
  EXPECT_DOUBLE_EQ(c.lambda_s, 2.01e-6);
  EXPECT_DOUBLE_EQ(c.c_disk, 1051.0);
  EXPECT_DOUBLE_EQ(c.c_mem, 4.5);

  const Platform s = coastal_ssd();
  EXPECT_EQ(s.nodes, 1024u);
  EXPECT_DOUBLE_EQ(s.lambda_f, 4.02e-7);
  EXPECT_DOUBLE_EQ(s.lambda_s, 2.01e-6);
  EXPECT_DOUBLE_EQ(s.c_disk, 2500.0);
  EXPECT_DOUBLE_EQ(s.c_mem, 180.0);
}

TEST(Registry, PaperConventionsApplied) {
  for (const Platform& p : table1_platforms()) {
    EXPECT_DOUBLE_EQ(p.r_disk, p.c_disk) << p.name;
    EXPECT_DOUBLE_EQ(p.r_mem, p.c_mem) << p.name;
    EXPECT_DOUBLE_EQ(p.v_guaranteed, p.c_mem) << p.name;
    EXPECT_DOUBLE_EQ(p.v_partial, p.v_guaranteed / 100.0) << p.name;
    EXPECT_DOUBLE_EQ(p.recall, 0.8) << p.name;
    EXPECT_NEAR(p.miss_probability(), 0.2, 1e-12) << p.name;
  }
}

TEST(Registry, MtbfMatchesPaperQuotes) {
  // "Hera ... platform MTBF of 12.2 days for fail-stop errors and 3.4 days
  // for silent errors"; "Coastal ... 28.8 days ... 5.8 days".
  EXPECT_NEAR(hera().mtbf_fail_stop() / kSecondsPerDay, 12.2, 0.05);
  EXPECT_NEAR(hera().mtbf_silent() / kSecondsPerDay, 3.4, 0.05);
  EXPECT_NEAR(coastal().mtbf_fail_stop() / kSecondsPerDay, 28.8, 0.05);
  EXPECT_NEAR(coastal().mtbf_silent() / kSecondsPerDay, 5.8, 0.05);
}

TEST(Registry, LookupByName) {
  EXPECT_EQ(by_name("Hera").name, "Hera");
  EXPECT_EQ(by_name("atlas").name, "Atlas");
  EXPECT_EQ(by_name("Coastal SSD").name, "CoastalSSD");
  EXPECT_EQ(by_name("coastal_ssd").name, "CoastalSSD");
  EXPECT_THROW(by_name("Summit"), std::invalid_argument);
}

TEST(Registry, TableHasFourPlatformsInOrder) {
  const auto all = table1_platforms();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name, "Hera");
  EXPECT_EQ(all[1].name, "Atlas");
  EXPECT_EQ(all[2].name, "Coastal");
  EXPECT_EQ(all[3].name, "CoastalSSD");
}

TEST(Platform, ValidateRejectsBadValues) {
  Platform p = hera();
  p.recall = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hera();
  p.lambda_f = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hera();
  p.lambda_s = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hera();
  p.c_disk = -5.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = hera();
  p.name.clear();
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Platform, ZeroRatesHaveInfiniteMtbf) {
  Platform p = hera();
  p.lambda_f = 0.0;
  p.lambda_s = 0.0;
  EXPECT_TRUE(std::isinf(p.mtbf_fail_stop()));
  EXPECT_TRUE(std::isinf(p.mtbf_silent()));
}

TEST(Platform, DescribeMentionsKeyNumbers) {
  const std::string d = hera().describe();
  EXPECT_NE(d.find("Hera"), std::string::npos);
  EXPECT_NE(d.find("256"), std::string::npos);
  EXPECT_NE(d.find("300"), std::string::npos);
}

}  // namespace
}  // namespace chainckpt::platform
