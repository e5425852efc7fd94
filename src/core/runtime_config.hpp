// One validated configuration for the serving runtime.
//
// The serving tier's knobs: the executor pool cap, the scheduler's
// worker count and max_pending, the connection cap, TelemetryOptions and
// the adaptive controller's band.  RuntimeConfig carries them in a
// single struct that Repository, QuerySubmissionService and AdrServer
// all accept, with validate() catching inconsistent settings (empty
// bands, inverted thresholds) once, up front, instead of as scattered
// surprises at runtime.
//
//   adr::RuntimeConfig rt;
//   rt.executor_pool_size = 4;
//   rt.adaptive.enabled = true;
//   rt.adaptive.max_resident = 8;
//   rt.check();                       // throws kInvalidArgument on nonsense
//   adr::net::AdrServer server(repo, port, costs, rt);
//
// The pre-existing constructors survive as thin shims so older call
// sites keep compiling; new code should prefer the RuntimeConfig
// overloads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.hpp"
#include "runtime/adaptive/controller.hpp"

namespace adr {

/// Background telemetry sampling for a serving process (the sampler
/// ring behind /history, adr_top, and the adaptive controller).
struct TelemetryOptions {
  /// Run the process-wide TelemetrySampler while the server runs.
  bool sampler = true;
  std::chrono::milliseconds sample_period{1000};
  std::size_t sample_capacity = 300;
  /// Port for the plaintext metrics endpoint (-1 = disabled, 0 = any).
  int http_port = -1;
};

/// Every dynamic-runtime knob in one place.  Field defaults reproduce
/// the historical constructor defaults of the components they feed.
struct RuntimeConfig {
  /// Warm executors kept resident between submits (the adaptive
  /// controller moves the cap inside [adaptive.min_resident,
  /// adaptive.max_resident] when enabled; this is the starting value).
  std::size_t executor_pool_size = 2;
  /// Scheduler worker threads run by QuerySubmissionService/AdrServer.
  std::size_t scheduler_workers = 4;
  /// Accepted-but-unfinished query cap before enqueue blocks (or
  /// try_enqueue refuses with kBusy at the server boundary).
  std::size_t max_pending = 256;
  /// Concurrent connection cap for AdrServer.
  std::size_t max_connections = 64;

  TelemetryOptions telemetry;
  AdaptiveOptions adaptive;

  /// Checks internal consistency; kInvalidArgument with a message
  /// naming the offending field on failure.
  Status validate() const;
  /// validate(), throwing StatusError{kInvalidArgument} on failure.
  void check() const;
};

}  // namespace adr
