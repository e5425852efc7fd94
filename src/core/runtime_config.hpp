// One validated configuration for the serving runtime.
//
// The serving tier's knobs: the scheduler's worker count and
// max_pending, the connection cap and TelemetryOptions.  RuntimeConfig
// carries them in a single struct that QuerySubmissionService and
// AdrServer accept, with validate() catching nonsense (zero workers, an
// empty sampler ring) once, up front, instead of at runtime.
//
//   adr::RuntimeConfig rt;
//   rt.scheduler_workers = 8;
//   rt.check();                       // throws kInvalidArgument on nonsense
//   adr::net::AdrServer server(repo, port, costs, rt);
//
// The executor pool needs no knob: it keeps every executor a query
// leased, so it grows to the peak number of concurrent queries.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.hpp"

namespace adr {

/// Background telemetry sampling for a serving process (the sampler
/// ring behind /history and adr_top).
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
  /// Scheduler worker threads run by QuerySubmissionService/AdrServer.
  std::size_t scheduler_workers = 4;
  /// Accepted-but-unfinished query cap before enqueue blocks (or
  /// try_enqueue refuses with kBusy at the server boundary).
  std::size_t max_pending = 256;
  /// Concurrent connection cap for AdrServer.
  std::size_t max_connections = 64;

  TelemetryOptions telemetry{};

  /// Checks internal consistency; kInvalidArgument with a message
  /// naming the offending field on failure.
  Status validate() const;
  /// validate(), throwing StatusError{kInvalidArgument} on failure.
  void check() const;
};

}  // namespace adr
