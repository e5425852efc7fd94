#include "core/runtime_config.hpp"

#include <string>

namespace adr {

namespace {
Status invalid(const std::string& what) {
  return Status::make(StatusCode::kInvalidArgument, "RuntimeConfig: " + what);
}
}  // namespace

Status RuntimeConfig::validate() const {
  if (executor_pool_size == 0) return invalid("executor_pool_size must be >= 1");
  if (scheduler_workers == 0) return invalid("scheduler_workers must be >= 1");
  if (max_pending == 0) return invalid("max_pending must be >= 1");
  if (max_connections == 0) return invalid("max_connections must be >= 1");
  if (telemetry.sample_capacity == 0) {
    return invalid("telemetry.sample_capacity must be >= 1");
  }
  if (telemetry.sample_period.count() <= 0) {
    return invalid("telemetry.sample_period must be positive");
  }

  const AdaptiveOptions& a = adaptive;
  if (a.min_resident == 0) return invalid("adaptive.min_resident must be >= 1");
  if (a.min_resident > a.max_resident) {
    return invalid("adaptive band is empty (min_resident > max_resident)");
  }
  if (a.depth_low_per_executor < 0.0 ||
      a.depth_high_per_executor <= a.depth_low_per_executor) {
    return invalid("adaptive depth thresholds must satisfy 0 <= low < high");
  }
  if (a.wait_low_s_per_s < 0.0 || a.wait_high_s_per_s <= a.wait_low_s_per_s) {
    return invalid("adaptive wait thresholds must satisfy 0 <= low < high");
  }
  if (a.scale_up_ticks < 1 || a.scale_down_ticks < 1) {
    return invalid("adaptive hysteresis tick counts must be >= 1");
  }
  if (a.tick.count() <= 0) return invalid("adaptive.tick must be positive");
  if (a.enabled && executor_pool_size > a.max_resident) {
    return invalid("executor_pool_size exceeds adaptive.max_resident");
  }
  return Status::make_ok();
}

void RuntimeConfig::check() const {
  const Status s = validate();
  if (!s.ok()) throw StatusError(s.code, s.message);
}

}  // namespace adr
