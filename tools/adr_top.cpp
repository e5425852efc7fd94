// adr_top: live terminal dashboard for an ADR server.
//
// Polls the server's telemetry history over the wire stats endpoint
// and repaints a compact dashboard each interval: query
// throughput, windowed p50/p99 submit latency, scheduler queue depth,
// cache hit ratios, active connections — each with a sparkline over the
// sampler's retained history.  The server must be running its telemetry
// sampler (AdrServer does by default); until the ring has two samples
// the dashboard shows totals only.
//
// Usage:
//   adr_top <port>                         repaint every second
//   adr_top <port> --interval <secs>       custom refresh cadence
//   adr_top <port> --samples <n>           history window (0 = whole ring)
//   adr_top <port> --once                  one frame, no repaint (CI smoke)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
            << " <port> [--interval <secs>] [--samples <n>] [--once]\n";
  return 2;
}

/// Max-normalized unicode sparkline (8 levels); a flat-zero series reads
/// as a flat baseline, not noise.
std::string sparkline(const std::vector<double>& values, std::size_t width = 48) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  const std::size_t begin = values.size() > width ? values.size() - width : 0;
  double max = 0.0;
  for (std::size_t i = begin; i < values.size(); ++i) {
    max = std::max(max, values[i]);
  }
  std::string out;
  for (std::size_t i = begin; i < values.size(); ++i) {
    const double norm = max > 0.0 ? values[i] / max : 0.0;
    const int level =
        std::clamp(static_cast<int>(std::lround(norm * 7.0)), 0, 7);
    out += kBlocks[level];
  }
  return out;
}

std::string fmt_count(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

std::string fmt_bytes(double v) {
  char buf[32];
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fGiB", v / (1024.0 * 1024.0 * 1024.0));
  } else if (v >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", v / (1024.0 * 1024.0));
  } else if (v >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", v / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", v);
  }
  return buf;
}

std::string fmt_latency(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fus", s * 1e6);
  }
  return buf;
}

double last_of(const std::vector<double>& v) { return v.empty() ? 0.0 : v.back(); }

/// One rendered frame of the dashboard.
std::string render(const JsonValue& history, std::uint16_t port) {
  std::ostringstream os;
  const double samples = history.num("samples");
  const double period_ms = history.num("period_ms", 1000.0);
  os << "adr_top - 127.0.0.1:" << port << "  period " << period_ms / 1000.0
     << "s  window " << samples << " samples\n\n";

  const JsonValue* counters = history.find("counters");
  const JsonValue* gauges = history.find("gauges");
  const JsonValue* histograms = history.find("histograms");
  if (samples < 2 || counters == nullptr) {
    os << "  (waiting for the sampler ring to fill: " << samples
       << " sample(s) so far)\n";
    return os.str();
  }

  const auto counter_series = [&](const char* name) {
    const JsonValue* s = counters->find(name);
    return s != nullptr ? s->nums("rates") : std::vector<double>{};
  };
  const auto counter_last = [&](const char* name) {
    const JsonValue* s = counters->find(name);
    return s != nullptr ? s->num("last") : 0.0;
  };
  const auto gauge_series = [&](const char* name) {
    const JsonValue* s =
        gauges != nullptr ? gauges->find(name) : nullptr;
    return s != nullptr ? s->nums("values") : std::vector<double>{};
  };

  const auto row = [&os](const std::string& label, const std::string& value,
                         const std::string& spark) {
    char head[64];
    std::snprintf(head, sizeof(head), "  %-14s %10s  ", label.c_str(),
                  value.c_str());
    os << head << spark << "\n";
  };

  const std::vector<double> qps = counter_series("scheduler.completed");
  row("qps", fmt_count(last_of(qps)) + "/s", sparkline(qps));

  if (histograms != nullptr) {
    if (const JsonValue* lat = histograms->find("submit.latency_s")) {
      const std::vector<double> p50s = lat->nums("p50s");
      const std::vector<double> p99s = lat->nums("p99s");
      row("latency p50", fmt_latency(last_of(p50s)), sparkline(p50s));
      row("latency p99", fmt_latency(last_of(p99s)), sparkline(p99s));
    }
  }

  const std::vector<double> depth = gauge_series("scheduler.queue_depth");
  row("queue depth", fmt_count(last_of(depth)), sparkline(depth));
  const std::vector<double> inflight = gauge_series("scheduler.in_flight");
  row("in flight", fmt_count(last_of(inflight)), sparkline(inflight));
  const std::vector<double> conns = gauge_series("server.active_connections");
  row("connections", fmt_count(last_of(conns)), sparkline(conns));

  // Hit ratios over the whole process life (the windowed rates are too
  // bursty to read as a percentage) plus the windowed lookup rate.
  const auto ratio = [&](const char* hits_name, const char* misses_name,
                         const char* label) {
    const double hits = counter_last(hits_name);
    const double lookups = hits + counter_last(misses_name);
    std::vector<double> hit_rate = counter_series(hits_name);
    char value[32];
    if (lookups > 0.0) {
      std::snprintf(value, sizeof(value), "%.1f%%", 100.0 * hits / lookups);
    } else {
      std::snprintf(value, sizeof(value), "-");
    }
    row(label, value, sparkline(hit_rate));
  };
  ratio("chunk_cache.hits", "chunk_cache.misses", "byte cache");
  ratio("cache.marginal.hits", "cache.marginal.misses", "marginal cache");

  const std::vector<double> cold = counter_series("query.cost.cold_bytes");
  row("cold read", fmt_bytes(last_of(cold)) + "/s", sparkline(cold));
  const std::vector<double> cached = counter_series("query.cost.cached_bytes");
  row("cached read", fmt_bytes(last_of(cached)) + "/s", sparkline(cached));

  os << "\n  totals: " << fmt_count(counter_last("scheduler.completed"))
     << " completed, " << fmt_count(counter_last("scheduler.failed"))
     << " failed, " << fmt_count(counter_last("scheduler.rejected"))
     << " rejected\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const long port = std::strtol(argv[1], nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::cerr << "adr_top: bad port '" << argv[1] << "'\n";
    return 2;
  }
  double interval_s = 1.0;
  std::uint32_t samples = 0;
  bool once = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval" && i + 1 < argc) {
      interval_s = std::strtod(argv[++i], nullptr);
      if (interval_s <= 0.0) interval_s = 1.0;
    } else if (arg == "--samples" && i + 1 < argc) {
      samples = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--once") {
      once = true;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    adr::net::AdrClient client(static_cast<std::uint16_t>(port));
    for (;;) {
      const adr::net::WireStatsReply reply =
          client.stats(/*include_trace=*/false, /*include_history=*/true, samples);
      JsonValue history;
      if (!reply.history_json.empty()) {
        history = adr::obs::parse_json(reply.history_json);
      }
      const std::string frame = render(history, static_cast<std::uint16_t>(port));
      if (once) {
        std::cout << frame;
        return 0;
      }
      // Home + clear-to-end repaint: no flicker, no scrollback spam.
      std::cout << "\x1b[H\x1b[J" << frame << std::flush;
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
  } catch (const std::exception& e) {
    std::cerr << "adr_top: " << e.what() << "\n";
    return 1;
  }
}
