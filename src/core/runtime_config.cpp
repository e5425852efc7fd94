#include "core/runtime_config.hpp"

#include <string>

namespace adr {

namespace {
Status invalid(const std::string& what) {
  return Status::make(StatusCode::kInvalidArgument, "RuntimeConfig: " + what);
}
}  // namespace

Status RuntimeConfig::validate() const {
  if (scheduler_workers == 0) return invalid("scheduler_workers must be >= 1");
  if (max_pending == 0) return invalid("max_pending must be >= 1");
  if (max_connections == 0) return invalid("max_connections must be >= 1");
  if (telemetry.sample_capacity == 0) {
    return invalid("telemetry.sample_capacity must be >= 1");
  }
  if (telemetry.sample_period.count() <= 0) {
    return invalid("telemetry.sample_period must be positive");
  }
  return Status::make_ok();
}

void RuntimeConfig::check() const {
  const Status s = validate();
  if (!s.ok()) throw StatusError(s.code, s.message);
}

}  // namespace adr
