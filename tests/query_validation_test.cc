#include "query/query.h"

#include <gtest/gtest.h>

namespace turbdb {
namespace {

ThresholdQuery ValidThreshold() {
  ThresholdQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3(0, 0, 0, 8, 8, 8);
  query.threshold = 10.0;
  query.fd_order = 4;
  return query;
}

TEST(ValidationTest, AcceptsWellFormedThresholdQuery) {
  EXPECT_TRUE(ValidateThresholdQuery(ValidThreshold()).ok());
}

TEST(ValidationTest, RejectsEmptyNames) {
  auto query = ValidThreshold();
  query.dataset.clear();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query = ValidThreshold();
  query.raw_field.clear();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query = ValidThreshold();
  query.derived_field.clear();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
}

TEST(ValidationTest, RejectsEmptyBox) {
  auto query = ValidThreshold();
  query.box = Box3();
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query.box = Box3(5, 5, 5, 5, 9, 9);
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
}

TEST(ValidationTest, RejectsBadOrderThresholdTimestep) {
  auto query = ValidThreshold();
  query.fd_order = 5;
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query = ValidThreshold();
  query.threshold = -1.0;
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
  query = ValidThreshold();
  query.timestep = -1;
  EXPECT_FALSE(ValidateThresholdQuery(query).ok());
}

TEST(ValidationTest, PdfQueryChecks) {
  PdfQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.box = Box3(0, 0, 0, 8, 8, 8);
  EXPECT_TRUE(ValidatePdfQuery(query).ok());
  query.bin_width = 1e-300;  // Legal: the node clamps to the overflow bin.
  EXPECT_TRUE(ValidatePdfQuery(query).ok());
  query.bin_width = 0.0;
  EXPECT_FALSE(ValidatePdfQuery(query).ok());
  query.bin_width = 1.0;
  query.num_bins = 0;
  EXPECT_FALSE(ValidatePdfQuery(query).ok());
}

TEST(ValidationTest, TopKQueryChecks) {
  TopKQuery query;
  query.dataset = "mhd";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.box = Box3(0, 0, 0, 8, 8, 8);
  query.k = 10;
  EXPECT_TRUE(ValidateTopKQuery(query).ok());
  query.k = 0;
  EXPECT_FALSE(ValidateTopKQuery(query).ok());
  query.k = kDefaultMaxResultPoints + 1;
  EXPECT_FALSE(ValidateTopKQuery(query).ok());
}

}  // namespace
}  // namespace turbdb
