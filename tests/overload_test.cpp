// Overload property test (docs/scheduling.md): drive the submission
// service well past saturation with deadline-carrying queries and check
// the Qos contract holds:
//
//   * every outcome is typed — ok or kDeadlineExceeded, never silent;
//   * under sustained overload some work is shed (the queue cannot grow
//     a latency tail without bound);
//   * admitted queries stay byte-identical to an unloaded run — load
//     shedding must never corrupt the work it admits;
//   * admitted completion latency stays bounded by the deadline budget
//     plus dispatch-time slack (a query may be picked up just before
//     its deadline and still run to completion).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/frontend.hpp"
#include "core/qos.hpp"
#include "test_helpers.hpp"

namespace adr {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

RepositoryConfig thread_config(int nodes) {
  RepositoryConfig cfg;
  cfg.num_nodes = nodes;
  cfg.memory_per_node = 16 << 20;
  // Every query does the same real work: served from the marginal
  // cache, the repeated query would cost next to nothing and the load
  // sized below in units of its execution time could not overload two
  // workers.
  cfg.marginal_cache_bytes = 0;
  return cfg;
}

std::vector<Chunk> grid_inputs(int n_side, int values_per_chunk) {
  std::vector<Chunk> chunks;
  const Rect domain = Rect::cube(2, 0.0, 1.0);
  std::uint64_t idx = 0;
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      ChunkMeta meta;
      meta.mbr = testing::cell(domain, n_side, ix, iy);
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
      meta.mbr = testing::cell(domain, n_side, ix, iy);
      chunks.emplace_back(meta, std::vector<std::byte>(24, std::byte{0}));
    }
  }
  return chunks;
}

TEST(Overload, ShedsTypedKeepsAdmittedCorrectAndBounded) {
  Repository repo(thread_config(2));
  // Heavy enough per query (64 chunks x 16K values) that execution time
  // is measurable: the offered load below is sized in units of it.
  const auto in =
      repo.create_dataset("in", Rect::cube(2, 0.0, 1.0), grid_inputs(8, 16384));
  const auto out = repo.create_dataset("out", Rect::cube(2, 0.0, 1.0), grid_outputs(2));

  Query q;
  q.input_dataset = in;
  q.output_dataset = out;
  q.range = Rect::cube(2, 0.0, 1.0);
  q.aggregation = "sum-count-max";
  q.delivery = OutputDelivery::kReturnToClient;

  // Unloaded reference answer, and a capacity estimate to size the
  // deadline budget in units of this machine's actual speed.
  const QueryResult reference = repo.submit(q);
  ASSERT_EQ(reference.outputs.size(), 4u);
  const auto cal0 = Clock::now();
  constexpr int kCalibrate = 8;
  for (int i = 0; i < kCalibrate; ++i) repo.submit(q);
  const auto mean_exec = (Clock::now() - cal0) / kCalibrate;
  const auto budget = std::max<Clock::duration>(4 * mean_exec, 50ms);
  const double mean_exec_ms =
      std::chrono::duration<double, std::milli>(mean_exec).count();
  const double budget_ms_sizing =
      std::chrono::duration<double, std::milli>(budget).count();

  // Size the backlog in units of this machine's speed: enough queued
  // work that draining it through two workers takes ~8x the deadline
  // budget, so the tail provably cannot make it.  Clamped so the test
  // stays fast on slow machines and meaningful on fast ones.
  constexpr int kClients = 4;
  const int per_client = std::clamp(
      static_cast<int>(2 * 8.0 * budget_ms_sizing /
                       std::max(mean_exec_ms, 1e-3) / kClients),
      50, 1000);

  QuerySubmissionService service(repo);

  std::mutex done_mutex;
  std::unordered_map<std::uint64_t, Clock::time_point> done_at;
  service.set_completion_callback([&](std::uint64_t ticket) {
    std::lock_guard<std::mutex> lk(done_mutex);
    done_at[ticket] = Clock::now();
  });
  service.start(2);

  // Far more deadline-equipped work than two workers can finish inside
  // the budget (blocking enqueue applies backpressure at max_pending,
  // which only adds to the queue-side wait the deadline must cover).
  std::mutex submitted_mutex;
  std::vector<std::pair<std::uint64_t, Clock::time_point>> submitted;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        ExecOptions options;
        options.qos = Qos::within(
            std::chrono::duration_cast<std::chrono::milliseconds>(budget));
        const auto t0 = Clock::now();
        const auto ticket =
            service.enqueue(q, {}, /*client=*/static_cast<std::uint64_t>(c + 1),
                            options);
        std::lock_guard<std::mutex> lk(submitted_mutex);
        submitted.emplace_back(ticket, t0);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.drain();
  service.stop();

  std::size_t admitted = 0, shed = 0;
  std::vector<double> admitted_ms;
  for (const auto& [ticket, t0] : submitted) {
    const auto outcome = service.take(ticket);
    if (outcome.ok()) {
      ++admitted;
      // Byte-identical to the unloaded run: shedding never corrupts the
      // work it admits.
      ASSERT_EQ(outcome.result.outputs.size(), reference.outputs.size());
      for (std::size_t o = 0; o < reference.outputs.size(); ++o) {
        EXPECT_EQ(outcome.result.outputs[o].payload(),
                  reference.outputs[o].payload());
      }
      const auto it = done_at.find(ticket);
      ASSERT_NE(it, done_at.end());
      admitted_ms.push_back(
          std::chrono::duration<double, std::milli>(it->second - t0).count());
    } else {
      // The only acceptable failure under overload is the typed
      // deadline shed — with a reason, never silent.
      ASSERT_EQ(outcome.status.code, StatusCode::kDeadlineExceeded)
          << outcome.status.to_string();
      EXPECT_FALSE(outcome.status.message.empty());
      ++shed;
    }
  }

  EXPECT_EQ(admitted + shed, static_cast<std::size_t>(kClients * per_client));
  // An 8x-budget backlog against two workers: most of the queue must
  // shed, and the earliest arrivals must get through.
  EXPECT_GT(shed, 0u);
  EXPECT_GT(admitted, 0u);

  // Admitted p99 is bounded: a query can be dispatched just before its
  // deadline and still execute, so the bound is budget + execution slack
  // — what can never appear is the unbounded FIFO queueing tail.
  ASSERT_FALSE(admitted_ms.empty());
  std::sort(admitted_ms.begin(), admitted_ms.end());
  const double p99 =
      admitted_ms[std::min(admitted_ms.size() - 1,
                           static_cast<std::size_t>(admitted_ms.size() * 0.99))];
  const double budget_ms =
      std::chrono::duration<double, std::milli>(budget).count();
  const double slack_ms = std::max(
      500.0, 10.0 * std::chrono::duration<double, std::milli>(mean_exec).count());
  EXPECT_LT(p99, budget_ms + slack_ms);
}

}  // namespace
}  // namespace adr
