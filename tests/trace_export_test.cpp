// Query-lifecycle tracer tests: ring semantics, concurrent recording
// (QueryTracer.* / TraceExport.* run under TSan in CI), the Chrome
// trace_event JSON golden shape, and an end-to-end run proving the
// serving stack emits queued/planned/execute/phase spans.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/frontend.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace adr::obs {
namespace {

TraceEvent make_event(const char* name, std::uint64_t query, std::uint64_t ts,
                      std::uint64_t dur, std::int32_t tile = -1) {
  TraceEvent e;
  e.name = name;
  e.query = query;
  e.ts_us = ts;
  e.dur_us = dur;
  e.tid = static_cast<std::uint32_t>(query);
  e.tile = tile;
  return e;
}

TEST(QueryTracer, DisabledRecordsNothing) {
  QueryTracer t;
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.now_us(), 0u);
  t.record(make_event("queued", 1, 0, 10));
  EXPECT_EQ(t.size(), 0u);
}

TEST(QueryTracer, RecordsAndReadsBackOldestFirst) {
  QueryTracer t;
  t.enable(16);
  t.record(make_event("queued", 1, 0, 5));
  t.record(make_event("planned", 1, 5, 2));
  t.record(make_event("execute", 1, 7, 100));
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_STREQ(evs[0].name, "queued");
  EXPECT_STREQ(evs[1].name, "planned");
  EXPECT_STREQ(evs[2].name, "execute");
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(QueryTracer, RingOverwritesOldestWhenFull) {
  QueryTracer t;
  t.enable(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    t.record(make_event("span", i, i * 10, 1));
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Events 1 and 2 were overwritten; 3..6 remain, oldest first.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].query, i + 3);
  }
}

TEST(QueryTracer, EnableRestartsClockAndClearsRing) {
  QueryTracer t;
  t.enable(8);
  t.record(make_event("old", 1, 0, 1));
  t.enable(8);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  const std::uint64_t a = t.now_us();
  const std::uint64_t b = t.now_us();
  EXPECT_LE(a, b);  // monotonic tracer clock
}

// TSan target: many threads record while another exports JSON.
TEST(QueryTracer, ConcurrentRecordAndExport) {
  QueryTracer t;
  t.enable(256);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&t, w]() {
      for (int i = 0; i < kPerThread; ++i) {
        t.record(make_event("span", static_cast<std::uint64_t>(w) + 1,
                            static_cast<std::uint64_t>(i), 1));
      }
    });
  }
  std::string last_json;
  for (int i = 0; i < 50; ++i) last_json = t.chrome_json();
  for (auto& th : writers) th.join();
  EXPECT_EQ(t.size(), 256u);
  EXPECT_EQ(t.dropped(),
            static_cast<std::uint64_t>(kThreads) * kPerThread - 256u);
  EXPECT_NO_THROW(obs::parse_json(t.chrome_json()));
}

TEST(TraceExport, ChromeJsonGoldenShape) {
  QueryTracer t;
  t.enable(16);
  t.record(make_event("queued", 7, 100, 50));
  TraceEvent phase = make_event("Local Reduction", 7, 160, 30, /*tile=*/2);
  phase.cat = "phase";
  phase.tid = 1;  // node id
  t.record(phase);

  const std::string json = t.chrome_json();
  ASSERT_NO_THROW(obs::parse_json(json));

  // Envelope + the two process_name metadata records.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":0,\"args\":{\"name\":\"adr serving\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
                      "\"tid\":0,\"args\":{\"name\":\"adr executor nodes\"}}"),
            std::string::npos);
  // Serving span: complete event on pid 1, tid = query id.
  EXPECT_NE(json.find("{\"name\":\"queued\",\"cat\":\"serving\",\"ph\":\"X\","
                      "\"ts\":100,\"dur\":50,\"pid\":1,\"tid\":7,"
                      "\"args\":{\"query\":7}}"),
            std::string::npos)
      << json;
  // Phase span: pid 2, tid = node id, args carry the tile.
  EXPECT_NE(json.find("{\"name\":\"Local Reduction\",\"cat\":\"phase\","
                      "\"ph\":\"X\",\"ts\":160,\"dur\":30,\"pid\":2,\"tid\":1,"
                      "\"args\":{\"query\":7,\"tile\":2}}"),
            std::string::npos)
      << json;
}

TEST(TraceExport, ThreadLocalTraceContext) {
  set_trace_query(42);
  EXPECT_EQ(trace_query(), 42u);
  std::uint64_t seen = 99;
  std::thread other([&seen]() { seen = trace_query(); });
  other.join();
  EXPECT_EQ(seen, 0u);  // context is per-thread
  set_trace_query(0);
}

// ---- end-to-end: the serving stack emits the full span ladder ----

RepositoryConfig thread_config(int nodes) {
  RepositoryConfig cfg;
  cfg.backend = RepositoryConfig::Backend::kThreads;
  cfg.num_nodes = nodes;
  cfg.memory_per_node = 1 << 20;
  return cfg;
}

std::vector<Chunk> grid_inputs(int n_side, int values_per_chunk) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::uint64_t idx = 0;
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = adr::testing::cell(domain, n_side, ix, iy);
      std::vector<std::uint64_t> vals(static_cast<size_t>(values_per_chunk));
      for (auto& v : vals) v = ++idx;
      std::vector<std::byte> payload(vals.size() * sizeof(std::uint64_t));
      std::memcpy(payload.data(), vals.data(), payload.size());
      chunks.emplace_back(meta, std::move(payload));
    }
  }
  return chunks;
}

std::vector<Chunk> grid_outputs(int n_side) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = adr::testing::cell(domain, n_side, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

TEST(TraceExport, SchedulerRunEmitsLifecycleSpans) {
  Repository repo(thread_config(2));
  const auto in = repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(4, 2));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  tracer().enable(4096);
  {
    QuerySubmissionService svc(repo);
    svc.start(2);
    Query q;
    q.input_dataset = in;
    q.output_dataset = out;
    q.range = Rect::cube(2, 0.0, 1.0);
    q.aggregation = "sum-count-max";
    q.strategy = StrategyKind::kFRA;
    const std::uint64_t ticket = svc.enqueue(q, ComputeCosts{});
    const auto outcome = svc.take(ticket);
    ASSERT_TRUE(outcome.ok()) << outcome.status.to_string();
    svc.stop();

    const auto evs = tracer().events();
    std::set<std::string> names;
    bool phase_span_has_tile = false;
    for (const TraceEvent& e : evs) {
      if (e.query != ticket) continue;
      names.insert(e.name);
      if (std::strcmp(e.cat, "phase") == 0 && e.tile >= 0) {
        phase_span_has_tile = true;
      }
    }
    EXPECT_TRUE(names.count("queued")) << "missing queued span";
    EXPECT_TRUE(names.count("selected")) << "missing selected span";
    EXPECT_TRUE(names.count("planned")) << "missing planned span";
    EXPECT_TRUE(names.count("execute")) << "missing execute span";
    EXPECT_TRUE(phase_span_has_tile) << "missing per-tile engine phase spans";

    EXPECT_NO_THROW(obs::parse_json(tracer().chrome_json()));
  }
  tracer().disable();
  tracer().clear();
}

}  // namespace
}  // namespace adr::obs
