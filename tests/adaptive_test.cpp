#include "runtime/adaptive/controller.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "obs/sampler.hpp"

namespace adr {
namespace {

/// Small band, fast hysteresis: decisions land within a handful of steps
/// so each test reads as a golden trace.
AdaptiveOptions test_options() {
  AdaptiveOptions o;
  o.enabled = true;
  o.min_resident = 1;
  o.max_resident = 4;
  o.depth_high_per_executor = 2.0;
  o.depth_low_per_executor = 0.5;
  o.wait_high_s_per_s = 0.5;
  o.wait_low_s_per_s = 0.05;
  o.scale_up_ticks = 2;
  o.scale_down_ticks = 3;
  return o;
}

/// A tick with the scheduler queue piled `depth` deep.
AdaptiveSignals pressured(double depth = 100.0) {
  AdaptiveSignals s;
  s.queue_depth = depth;
  s.in_flight = 8.0;
  return s;
}

/// A tick with nothing queued, nothing running, no wait accumulating.
AdaptiveSignals idle() { return AdaptiveSignals{}; }

TEST(Adaptive, ScaleUpRequiresSustainedPressure) {
  AdaptiveController c(test_options(), {});
  EXPECT_EQ(c.resident(), 1u);

  // One pressured tick is not enough (scale_up_ticks = 2)...
  AdaptiveDecision d = c.step(pressured());
  EXPECT_FALSE(d.scaled_up);
  EXPECT_EQ(d.resident, 1u);
  // ...the second consecutive one moves the band.
  d = c.step(pressured());
  EXPECT_TRUE(d.scaled_up);
  EXPECT_EQ(d.resident, 2u);
  EXPECT_EQ(c.resident(), 2u);
}

TEST(Adaptive, ScaleUpClampsAtMaxResident) {
  AdaptiveController c(test_options(), {});
  for (int i = 0; i < 40; ++i) c.step(pressured());
  EXPECT_EQ(c.resident(), 4u);  // max_resident, not 20
}

TEST(Adaptive, IdleDecaysBackToMin) {
  AdaptiveController c(test_options(), {});
  for (int i = 0; i < 8; ++i) c.step(pressured());
  ASSERT_EQ(c.resident(), 4u);

  // Decay takes scale_down_ticks consecutive idle ticks per step.
  int downs = 0;
  for (int i = 0; i < 3 * 3; ++i) {
    if (c.step(idle()).scaled_down) ++downs;
  }
  EXPECT_EQ(downs, 3);
  EXPECT_EQ(c.resident(), 1u);
  // And it never undershoots the floor.
  for (int i = 0; i < 10; ++i) c.step(idle());
  EXPECT_EQ(c.resident(), 1u);
}

TEST(Adaptive, DeadZoneBreaksStreaks) {
  AdaptiveController c(test_options(), {});
  // Borderline load: depth between low*r and high*r is neither pressured
  // nor idle, so it must reset the up-streak and prevent flapping.
  AdaptiveSignals borderline;
  borderline.queue_depth = 1.0;  // low (0.5) < 1.0 < high (2.0) at r = 1
  borderline.in_flight = 1.0;

  for (int i = 0; i < 20; ++i) {
    const AdaptiveDecision d =
        c.step(i % 2 == 0 ? pressured() : borderline);
    EXPECT_FALSE(d.scaled_up);
    EXPECT_FALSE(d.scaled_down);
  }
  EXPECT_EQ(c.resident(), 1u);
}

TEST(Adaptive, QueueWaitAloneTriggersScaleUp) {
  AdaptiveController c(test_options(), {});
  // Depth looks modest but wait-seconds accumulate fast: the secondary
  // signal alone must count as pressure.
  AdaptiveSignals s;
  s.queue_depth = 1.0;
  s.queue_wait_s_per_s = 1.0;  // > wait_high_s_per_s
  c.step(s);
  const AdaptiveDecision d = c.step(s);
  EXPECT_TRUE(d.scaled_up);
  EXPECT_EQ(d.resident, 2u);
}

TEST(Adaptive, DegenerateBandNeverMoves) {
  AdaptiveOptions o = test_options();
  o.min_resident = 3;
  o.max_resident = 3;
  AdaptiveController c(o, {});
  EXPECT_EQ(c.resident(), 3u);
  for (int i = 0; i < 10; ++i) {
    const AdaptiveDecision d = c.step(pressured());
    EXPECT_FALSE(d.scaled_up);
    EXPECT_EQ(d.resident, 3u);
  }
  for (int i = 0; i < 10; ++i) {
    const AdaptiveDecision d = c.step(idle());
    EXPECT_FALSE(d.scaled_down);
    EXPECT_EQ(d.resident, 3u);
  }
}

TEST(Adaptive, StartAppliesInitialTargetsThroughActuators) {
  AdaptiveOptions o = test_options();
  o.min_resident = 2;
  o.tick = std::chrono::milliseconds{50};

  std::vector<std::size_t> residents;
  AdaptiveController::Actuators act;
  act.set_resident = [&](std::size_t n) { residents.push_back(n); };
  AdaptiveController c(o, std::move(act));

  c.start();
  c.stop();
  // start() establishes the band floor before the tick thread sees any
  // samples.
  ASSERT_FALSE(residents.empty());
  EXPECT_EQ(residents.front(), 2u);
}

TEST(Adaptive, SignalsFromRingSamplesComputesRates) {
  obs::TelemetrySample prev;
  prev.mono_ms = 1000;
  obs::HistogramSnapshot wait0;
  wait0.bounds = {1.0};
  wait0.counts = {5, 0};
  wait0.count = 5;
  wait0.sum = 2.0;
  prev.snapshot.histograms = {{"scheduler.queue_wait_s", wait0}};

  obs::TelemetrySample cur = prev;
  cur.mono_ms = 3000;  // 2 s window
  cur.snapshot.gauges = {{"scheduler.in_flight", 3}, {"scheduler.queue_depth", 7}};
  obs::HistogramSnapshot wait1 = wait0;
  wait1.sum = 3.0;
  cur.snapshot.histograms = {{"scheduler.queue_wait_s", wait1}};

  const AdaptiveSignals s = AdaptiveController::signals_from(prev, cur);
  EXPECT_DOUBLE_EQ(s.interval_s, 2.0);
  EXPECT_DOUBLE_EQ(s.queue_depth, 7.0);
  EXPECT_DOUBLE_EQ(s.in_flight, 3.0);
  EXPECT_DOUBLE_EQ(s.queue_wait_s_per_s, 0.5);  // (3 - 2) sum-seconds / 2 s

  // A registry reset (sum shrank) reports 0, never a negative rate.
  obs::TelemetrySample reset = cur;
  reset.mono_ms = 5000;
  reset.snapshot.histograms[0].second.sum = 0.5;
  EXPECT_DOUBLE_EQ(AdaptiveController::signals_from(cur, reset).queue_wait_s_per_s,
                   0.0);

  // Zero-length interval invalidates every signal.
  const AdaptiveSignals degenerate = AdaptiveController::signals_from(cur, cur);
  EXPECT_DOUBLE_EQ(degenerate.interval_s, 0.0);
  EXPECT_DOUBLE_EQ(degenerate.queue_depth, 0.0);
}

}  // namespace
}  // namespace adr
