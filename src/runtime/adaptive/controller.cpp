#include "runtime/adaptive/controller.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace adr {

namespace {

/// adaptive.* instruments, resolved once (registry lookups are mutexed).
struct AdaptiveMetrics {
  obs::Counter& ticks;
  obs::Counter& scale_ups;
  obs::Counter& scale_downs;
  obs::Gauge& resident_target;
};

AdaptiveMetrics& adaptive_metrics() {
  static AdaptiveMetrics m{obs::metrics().counter("adaptive.ticks"),
                           obs::metrics().counter("adaptive.scale_ups"),
                           obs::metrics().counter("adaptive.scale_downs"),
                           obs::metrics().gauge("adaptive.resident_target")};
  return m;
}

}  // namespace

AdaptiveController::AdaptiveController(const AdaptiveOptions& options,
                                       Actuators actuators)
    : options_(options), actuators_(std::move(actuators)) {
  resident_ = std::clamp<std::size_t>(options_.min_resident, 1,
                                      std::max<std::size_t>(options_.max_resident, 1));
}

AdaptiveController::~AdaptiveController() { stop(); }

void AdaptiveController::start() {
  {
    std::lock_guard<std::mutex> lk(thread_mutex_);
    if (thread_running_) return;
    thread_running_ = true;
  }
  // Establish the starting point before any load arrives: band floor.
  AdaptiveDecision d;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    d.resident = resident_;
  }
  apply(d);
  thread_ = std::thread([this] { thread_main(); });
}

void AdaptiveController::stop() {
  {
    std::lock_guard<std::mutex> lk(thread_mutex_);
    if (!thread_running_) return;
    thread_running_ = false;
  }
  thread_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

AdaptiveDecision AdaptiveController::step(const AdaptiveSignals& signals) {
  std::lock_guard<std::mutex> lk(mutex_);
  AdaptiveDecision d;
  const auto lo = std::max<std::size_t>(options_.min_resident, 1);
  const auto hi = std::max<std::size_t>(options_.max_resident, lo);
  resident_ = std::clamp(resident_, lo, hi);

  const double r = static_cast<double>(resident_);
  const bool pressured =
      signals.queue_depth >= options_.depth_high_per_executor * r ||
      signals.queue_wait_s_per_s >= options_.wait_high_s_per_s;
  const bool idle =
      signals.queue_depth <= options_.depth_low_per_executor * r &&
      signals.in_flight < r &&
      signals.queue_wait_s_per_s <= options_.wait_low_s_per_s;

  if (pressured) {
    ++up_streak_;
    down_streak_ = 0;
  } else if (idle) {
    ++down_streak_;
    up_streak_ = 0;
  } else {
    // In the dead zone between the thresholds neither streak grows —
    // that's the hysteresis band keeping a borderline load from flapping.
    up_streak_ = 0;
    down_streak_ = 0;
  }

  if (up_streak_ >= options_.scale_up_ticks && resident_ < hi) {
    ++resident_;
    up_streak_ = 0;
    d.scaled_up = true;
  } else if (down_streak_ >= options_.scale_down_ticks && resident_ > lo) {
    --resident_;
    down_streak_ = 0;
    d.scaled_down = true;
  }

  d.resident = resident_;
  return d;
}

bool AdaptiveController::tick_now() {
  auto history = obs::sampler().history(2);
  if (history.size() < 2) return false;
  const obs::TelemetrySample& prev = history[history.size() - 2];
  const obs::TelemetrySample& cur = history.back();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (cur.mono_ms <= last_sample_mono_ms_) return false;
    last_sample_mono_ms_ = cur.mono_ms;
  }
  const AdaptiveDecision d = step(signals_from(prev, cur));
  apply(d);
  return true;
}

AdaptiveSignals AdaptiveController::signals_from(
    const obs::TelemetrySample& prev, const obs::TelemetrySample& cur) {
  AdaptiveSignals s;
  s.interval_s =
      static_cast<double>(cur.mono_ms - prev.mono_ms) / 1000.0;
  if (s.interval_s <= 0.0) return s;

  if (const std::int64_t* g = cur.snapshot.gauge("scheduler.queue_depth")) {
    s.queue_depth = static_cast<double>(*g);
  }
  if (const std::int64_t* g = cur.snapshot.gauge("scheduler.in_flight")) {
    s.in_flight = static_cast<double>(*g);
  }

  // Histogram sum delta: seconds of queue wait accumulated per second of
  // wall time.  Resets (sum shrank) report as 0 rather than a negative
  // rate — the next interval recovers.
  const obs::HistogramSnapshot* hp =
      prev.snapshot.histogram("scheduler.queue_wait_s");
  const obs::HistogramSnapshot* hc =
      cur.snapshot.histogram("scheduler.queue_wait_s");
  if (hp != nullptr && hc != nullptr && hc->sum >= hp->sum) {
    s.queue_wait_s_per_s = (hc->sum - hp->sum) / s.interval_s;
  }
  return s;
}

std::size_t AdaptiveController::resident() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return resident_;
}

void AdaptiveController::thread_main() {
  std::unique_lock<std::mutex> lk(thread_mutex_);
  while (thread_running_) {
    thread_cv_.wait_for(lk, options_.tick, [this] { return !thread_running_; });
    if (!thread_running_) break;
    lk.unlock();
    tick_now();
    lk.lock();
  }
}

void AdaptiveController::apply(const AdaptiveDecision& d) {
  AdaptiveMetrics& m = adaptive_metrics();
  m.ticks.add();
  if (d.scaled_up) m.scale_ups.add();
  if (d.scaled_down) m.scale_downs.add();
  m.resident_target.set(static_cast<std::int64_t>(d.resident));
  if (actuators_.set_resident) actuators_.set_resident(d.resident);
}

}  // namespace adr
