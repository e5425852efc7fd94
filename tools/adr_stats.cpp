// adr_stats: query a live AdrServer's observability endpoint.
//
// Connects to the server's socket port, sends a stats-request frame and
// renders the metrics snapshot as a human-readable table: counters,
// gauges, then histograms with count/mean/p50/p95/p99.  A quantile that
// resolved in a histogram's overflow bucket is flagged — `>= 10s
// (overflow)` means "at least the last finite bound", not a measured
// value.  A short cache summary (byte-cache and marginal-cache hit
// ratios) goes to stderr so stdout stays pipeable.
//
// --json prints the raw snapshot JSON instead (the pre-table behavior;
// pipe through `jq`).  --watch <secs> repaints continuously, adding
// per-second rates computed client-side from the server's telemetry
// history endpoint (the server's sampler must be running,
// which AdrServer does by default).  With --trace, also asks for the
// query-lifecycle trace and writes it as Chrome trace_event JSON to the
// given file; open it in https://ui.perfetto.dev.  The trace is empty
// unless the server process has tracing enabled.
//
// Exits non-zero when the server cannot be reached — no partial table.
//
// Usage:
//   adr_stats <port>                    human-readable table
//   adr_stats <port> --json             raw metrics snapshot JSON
//   adr_stats <port> --watch <secs>     repaint with client-side rates
//   adr_stats <port> --trace out.json   also save the Chrome trace
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "obs/json.hpp"

namespace {

using adr::obs::JsonValue;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <port> [--json] [--watch <secs>] [--trace <out.json>]\n";
  return 2;
}

std::string fmt_double(double v) {
  char buf[48];
  if (v != 0.0 && (std::abs(v) < 1e-3 || std::abs(v) >= 1e7)) {
    std::snprintf(buf, sizeof(buf), "%.3e", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

/// Renders one histogram quantile, flagging values that resolved in the
/// overflow bucket: the reported number is the last finite bound, a
/// floor rather than a measurement.
std::string fmt_quantile(double q, double value, double count, double overflow) {
  const double rank = q * count;
  const bool in_overflow = overflow > 0.0 && rank > count - overflow;
  if (in_overflow) return ">= " + fmt_double(value) + " (overflow)";
  return fmt_double(value);
}

/// Counters section; in watch mode each row adds the last per-second
/// rate from the history ring (client-side computation — the server
/// only ships raw sample values).
void print_counters(const JsonValue& snapshot, const JsonValue* history,
                    std::ostream& os) {
  const JsonValue* counters = snapshot.find("counters");
  const JsonValue* hist_counters =
      history != nullptr ? history->find("counters") : nullptr;
  os << "COUNTERS";
  if (history != nullptr) {
    os << (history->num("samples") >= 2
               ? "  (rate over the last sample interval)"
               : "  (no history yet: sampler warming up)");
  }
  os << "\n";
  if (counters == nullptr) return;
  for (const auto& [name, v] : counters->object) {
    os << "  " << std::left << std::setw(36) << name << " " << std::right
       << std::setw(12) << static_cast<std::uint64_t>(v.number_or(0.0));
    if (hist_counters != nullptr) {
      if (const JsonValue* series = hist_counters->find(name)) {
        const std::vector<double> rates = series->nums("rates");
        if (!rates.empty()) {
          os << "  " << std::setw(10) << fmt_double(rates.back()) << "/s";
        }
      }
    }
    os << "\n";
  }
}

void print_gauges_and_histograms(const JsonValue& snapshot, std::ostream& os) {
  os << "\nGAUGES\n";
  if (const JsonValue* gauges = snapshot.find("gauges")) {
    for (const auto& [name, v] : gauges->object) {
      os << "  " << std::left << std::setw(36) << name << " " << std::right
         << std::setw(12) << static_cast<std::int64_t>(v.number_or(0.0)) << "\n";
    }
  }
  os << "\nHISTOGRAMS\n";
  if (const JsonValue* histograms = snapshot.find("histograms")) {
    for (const auto& [name, h] : histograms->object) {
      const double count = h.num("count");
      const double overflow = h.num("overflow");
      os << "  " << std::left << std::setw(36) << name << " count "
         << static_cast<std::uint64_t>(count);
      if (count > 0.0) {
        os << "  mean " << fmt_double(h.num("mean")) << "  p50 "
           << fmt_quantile(0.50, h.num("p50"), count, overflow) << "  p95 "
           << fmt_quantile(0.95, h.num("p95"), count, overflow) << "  p99 "
           << fmt_quantile(0.99, h.num("p99"), count, overflow);
        if (overflow > 0.0) {
          os << "  overflow " << static_cast<std::uint64_t>(overflow);
        }
      }
      os << "\n";
    }
  }
}

/// Byte-cache / marginal-cache hit ratios (docs/caching.md), on stderr
/// so stdout stays machine-parseable.
void print_cache_summary(const JsonValue& snapshot) {
  const JsonValue* counters = snapshot.find("counters");
  if (counters == nullptr) return;
  const auto value = [&](const char* name) {
    const JsonValue* v = counters->find(name);
    return v != nullptr ? v->number_or(0.0) : 0.0;
  };
  const auto ratio_line = [](const char* label, double hits, double misses) {
    const double lookups = hits + misses;
    std::cerr << label << ": ";
    if (lookups <= 0.0) {
      std::cerr << "no lookups\n";
      return;
    }
    std::cerr << std::fixed << std::setprecision(1) << (100.0 * hits / lookups)
              << "% hit ratio (" << static_cast<std::uint64_t>(hits) << " hits / "
              << static_cast<std::uint64_t>(lookups) << " lookups)\n";
  };
  ratio_line("byte cache (chunk_cache)", value("chunk_cache.hits"),
             value("chunk_cache.misses"));
  ratio_line("marginal cache (cache.marginal)", value("cache.marginal.hits"),
             value("cache.marginal.misses"));
}

/// Router health summary (docs/sharding.md), printed only when the
/// queried process is an adr_router (router.* series present): total
/// routed/failover traffic plus per-backend up/down and query counts,
/// on stderr so stdout stays machine-parseable.
void print_router_summary(const JsonValue& snapshot) {
  const JsonValue* counters = snapshot.find("counters");
  const JsonValue* gauges = snapshot.find("gauges");
  if (counters == nullptr || counters->find("router.queries") == nullptr) {
    return;  // not a router
  }
  const auto value = [&](const char* name) {
    const JsonValue* v = counters->find(name);
    return v != nullptr ? v->number_or(0.0) : 0.0;
  };
  std::cerr << "router: " << static_cast<std::uint64_t>(value("router.queries"))
            << " queries, "
            << static_cast<std::uint64_t>(value("router.failovers"))
            << " failovers, "
            << static_cast<std::uint64_t>(value("router.exhausted"))
            << " exhausted\n";
  // Per-backend rows: router.backend.<port>.queries counters paired
  // with router.backend.<port>.up gauges.
  const std::string prefix = "router.backend.";
  for (const auto& [name, v] : counters->object) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::size_t dot = name.find('.', prefix.size());
    if (dot == std::string::npos || name.substr(dot + 1) != "queries") continue;
    const std::string backend_port = name.substr(prefix.size(), dot - prefix.size());
    double up = 1.0;
    if (gauges != nullptr) {
      if (const JsonValue* g = gauges->find(prefix + backend_port + ".up")) {
        up = g->number_or(1.0);
      }
    }
    std::cerr << "  backend " << backend_port << ": "
              << (up != 0.0 ? "up" : "DOWN") << ", "
              << static_cast<std::uint64_t>(v.number_or(0.0)) << " queries\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const long port = std::strtol(argv[1], nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::cerr << "adr_stats: bad port '" << argv[1] << "'\n";
    return 2;
  }
  bool json = false;
  double watch_s = 0.0;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--watch" && i + 1 < argc) {
      watch_s = std::strtod(argv[++i], nullptr);
      if (watch_s <= 0.0) {
        std::cerr << "adr_stats: bad --watch interval\n";
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }

  try {
    adr::net::AdrClient client(static_cast<std::uint16_t>(port));
    for (;;) {
      const adr::net::WireStatsReply reply =
          client.stats(!trace_path.empty(), /*include_history=*/watch_s > 0.0);

      if (json) {
        std::cout << reply.metrics_json << "\n";
        const JsonValue snapshot = adr::obs::parse_json(reply.metrics_json);
        print_cache_summary(snapshot);
        print_router_summary(snapshot);
      } else if (watch_s > 0.0) {
        const JsonValue snapshot = adr::obs::parse_json(reply.metrics_json);
        JsonValue history;
        if (!reply.history_json.empty()) {
          history = adr::obs::parse_json(reply.history_json);
        }
        std::ostringstream frame;
        print_counters(snapshot, &history, frame);
        print_gauges_and_histograms(snapshot, frame);
        std::cout << "\x1b[H\x1b[J" << frame.str() << std::flush;
      } else {
        const JsonValue snapshot = adr::obs::parse_json(reply.metrics_json);
        std::ostringstream frame;
        print_counters(snapshot, nullptr, frame);
        print_gauges_and_histograms(snapshot, frame);
        std::cout << frame.str();
        print_cache_summary(snapshot);
        print_router_summary(snapshot);
      }

      if (!trace_path.empty()) {
        if (reply.trace_json.empty()) {
          std::cerr << "adr_stats: server returned no trace (tracing not "
                       "enabled server-side?)\n";
        } else {
          std::ofstream out(trace_path);
          if (!out) {
            std::cerr << "adr_stats: cannot write " << trace_path << "\n";
            return 1;
          }
          out << reply.trace_json;
          std::cerr << "adr_stats: wrote Chrome trace to " << trace_path
                    << " (open in https://ui.perfetto.dev)\n";
        }
        trace_path.clear();  // watch mode: save the trace once
      }

      if (watch_s <= 0.0) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(watch_s));
    }
  } catch (const std::exception& e) {
    std::cerr << "adr_stats: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
