// Adaptive runtime controller: closes the loop from the telemetry
// sampler's time series back onto the executor pool's resident cap.
//
// The pool's resident cap (warm node-thread executors kept between
// submits) was static at construction.  The paper's runtime wins come
// from keeping disk, network and compute saturated *without*
// overcommitting — which depends on offered load, so the right value
// changes minute to minute.  AdaptiveController is a small feedback
// controller that reads the sampler ring (obs/sampler.hpp) each tick and
// moves resident executors inside a [min_resident, max_resident] band:
// scale up on sustained scheduler queue depth or queue-wait
// accumulation, decay back down when the queue is idle.  Streak counters
// (scale_up_ticks / scale_down_ticks consecutive observations) provide
// hysteresis so a noisy signal cannot flap the band.
//
// Decisions are a pure function of (signals, internal streak state):
// step() takes an explicit AdaptiveSignals and returns the decision, so
// tests drive the controller over synthetic time series without a
// sampler, a clock, or a running pool.  The background thread is a thin
// shell: extract signals from the two newest ring samples, step, apply
// through the injected actuator.
//
// Metrics: adaptive.ticks/scale_ups/scale_downs counters and the
// adaptive.resident_target gauge (catalog: docs/observability.md).
// Policy walkthrough: docs/scheduling.md.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "obs/sampler.hpp"

namespace adr {

/// Controller tuning.  Defaults are deliberately conservative: a burst
/// must persist for scale_up_ticks sampler intervals before the band
/// moves, and decay takes scale_down_ticks idle intervals.
struct AdaptiveOptions {
  /// Master switch (RuntimeConfig carries this struct; a disabled
  /// controller is never constructed).
  bool enabled = false;

  /// Resident-executor band the controller moves within.
  std::size_t min_resident = 1;
  std::size_t max_resident = 8;
  /// Scale up when queue depth >= depth_high_per_executor * resident
  /// target; eligible to decay when depth <= depth_low_per_executor *
  /// resident target and the executors are not all busy.
  double depth_high_per_executor = 2.0;
  double depth_low_per_executor = 0.5;
  /// Secondary pressure signal: queue-wait seconds accumulated per
  /// second of wall time (delta of the scheduler.queue_wait_s sum).
  /// Above wait_high the queue is hurting even if depth looks modest;
  /// below wait_low it corroborates idleness.
  double wait_high_s_per_s = 0.5;
  double wait_low_s_per_s = 0.05;
  /// Hysteresis: consecutive pressured / idle ticks required before the
  /// resident target moves one step.
  int scale_up_ticks = 2;
  int scale_down_ticks = 5;

  /// Background thread poll period (decisions still advance at the
  /// sampler's cadence — a tick without a new ring sample is a no-op).
  std::chrono::milliseconds tick{200};
  /// Construct executors up to the new target on scale-up instead of
  /// waiting for demand to pay the thread-spawn latency.
  bool prewarm = true;
};

/// One tick's input, extracted from two adjacent sampler ring samples
/// (or synthesized directly in tests).
struct AdaptiveSignals {
  /// Interval between the two samples; <= 0 invalidates the rates.
  double interval_s = 1.0;
  /// scheduler.queue_depth / scheduler.in_flight gauges (newest sample).
  double queue_depth = 0.0;
  double in_flight = 0.0;
  /// scheduler.queue_wait_s histogram *sum* delta per second: seconds of
  /// queue wait accumulated per second of wall time.
  double queue_wait_s_per_s = 0.0;
};

/// What one step decided.  resident is the *current* target
/// (post-decision); the booleans flag this step's transitions.
struct AdaptiveDecision {
  std::size_t resident = 0;
  bool scaled_up = false;
  bool scaled_down = false;
};

class AdaptiveController {
 public:
  /// How decisions reach the runtime.  Injected so the controller never
  /// holds pool locks itself (and so tests can record calls).
  struct Actuators {
    /// Apply a new resident-executor target (band already enforced).
    std::function<void(std::size_t)> set_resident;
  };

  AdaptiveController(const AdaptiveOptions& options, Actuators actuators);
  ~AdaptiveController();

  AdaptiveController(const AdaptiveController&) = delete;
  AdaptiveController& operator=(const AdaptiveController&) = delete;

  /// Applies the initial target (min_resident) and spawns the tick
  /// thread.  No-op when already started.
  void start();
  /// Joins the tick thread.  Safe to call repeatedly / without start().
  void stop();

  /// One pure control step over explicit signals: updates streak state,
  /// moves the target, returns the decision.  Does NOT actuate — the
  /// tick loop (or a test) applies the result.  Thread-safe.
  AdaptiveDecision step(const AdaptiveSignals& signals);

  /// One poll of the sampler ring: if a new sample landed since the
  /// last poll, extract signals, step, and actuate.  Returns true when
  /// a step ran.  Called by the tick thread; exposed for deterministic
  /// tests and benches driving obs::sampler().sample_now() themselves.
  bool tick_now();

  /// Extracts one tick's signals from two adjacent ring samples
  /// (reset-aware rates; see obs/exposition.hpp).
  static AdaptiveSignals signals_from(const obs::TelemetrySample& prev,
                                      const obs::TelemetrySample& cur);

  /// Current target (what the last step decided).
  std::size_t resident() const;

  const AdaptiveOptions& options() const { return options_; }

 private:
  void thread_main();
  void apply(const AdaptiveDecision& d);

  const AdaptiveOptions options_;
  const Actuators actuators_;

  mutable std::mutex mutex_;
  std::size_t resident_ = 1;
  int up_streak_ = 0;
  int down_streak_ = 0;
  /// mono_ms of the newest ring sample already consumed by tick_now().
  std::uint64_t last_sample_mono_ms_ = 0;

  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;
  bool thread_running_ = false;
  std::thread thread_;
};

}  // namespace adr
