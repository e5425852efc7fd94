#include "core/query.hpp"

#include <gtest/gtest.h>

#include "common/logging.hpp"

namespace adr {
namespace {

TEST(QueryNames, StrategyToString) {
  EXPECT_EQ(to_string(StrategyKind::kFRA), "FRA");
  EXPECT_EQ(to_string(StrategyKind::kSRA), "SRA");
  EXPECT_EQ(to_string(StrategyKind::kDA), "DA");
  EXPECT_EQ(to_string(StrategyKind::kHybrid), "Hybrid");
  EXPECT_EQ(to_string(StrategyKind::kAuto), "Auto");
}

TEST(QueryNames, TilingOrderToString) {
  EXPECT_EQ(to_string(TilingOrder::kHilbert), "hilbert");
  EXPECT_EQ(to_string(TilingOrder::kRowMajor), "row-major");
  EXPECT_EQ(to_string(TilingOrder::kRandom), "random");
}

TEST(QueryNames, DeliveryToString) {
  EXPECT_EQ(to_string(OutputDelivery::kWriteBack), "write-back");
  EXPECT_EQ(to_string(OutputDelivery::kReturnToClient), "return-to-client");
  EXPECT_EQ(to_string(OutputDelivery::kDiscard), "discard");
}

TEST(QueryDefaults, SensibleOutOfTheBox) {
  Query q;
  EXPECT_EQ(q.strategy, StrategyKind::kFRA);
  EXPECT_EQ(q.tiling_order, TilingOrder::kHilbert);
  EXPECT_EQ(q.delivery, OutputDelivery::kWriteBack);
  EXPECT_TRUE(q.extra_input_datasets.empty());
  EXPECT_FALSE(q.range.valid());  // must be set explicitly
}

TEST(Logging, LevelGatesOutput) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  // Emitting at each level must not crash regardless of the gate.
  ADR_DEBUG("debug message " << 1);
  ADR_INFO("info message " << 2);
  ADR_WARN("warn message " << 3);
  set_log_level(before);
}

}  // namespace
}  // namespace adr
