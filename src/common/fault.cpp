#include "common/fault.hpp"

#include <thread>
#include <utility>

#include "common/random.hpp"
#include "obs/metrics.hpp"

namespace adr::fault {
namespace {

// FNV-1a: a stable name hash, so a point's RNG stream depends only on
// the (seed, name) pair — std::hash would tie determinism to the
// standard library build.
std::uint64_t hash_name(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

FaultRegistry& faults() {
  // Immortal (never destroyed): instrumented call sites may evaluate
  // points during static teardown.
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

void FaultRegistry::seed(std::uint64_t s) {
  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = s;
}

void FaultRegistry::arm(const std::string& point, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  Point& p = points_[point];
  if (!p.armed) armed_points_.fetch_add(1, std::memory_order_relaxed);
  p.spec = std::move(spec);
  p.rng_state = mix_seed(seed_, hash_name(point));
  p.hits = 0;
  p.fires = 0;
  p.armed = true;
}

bool FaultRegistry::disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  if (it == points_.end() || !it->second.armed) return false;
  it->second.armed = false;
  armed_points_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void FaultRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t armed = 0;
  for (auto& [name, p] : points_) armed += p.armed ? 1 : 0;
  for (auto& [name, p] : points_) p.armed = false;
  armed_points_.fetch_sub(armed, std::memory_order_relaxed);
}

Status FaultRegistry::evaluate(const char* point) {
  // Hot-path gate: production runs pay exactly this relaxed load.
  if (!armed()) return Status::make_ok();
  return evaluate_slow(point);
}

Status FaultRegistry::evaluate_slow(const char* point) {
  Status injected;
  std::chrono::microseconds delay{0};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(point);
    if (it == points_.end() || !it->second.armed) return Status::make_ok();
    Point& p = it->second;
    const std::uint64_t hit = ++p.hits;
    bool fire = false;
    switch (p.spec.trigger) {
      case Trigger::kAlways:
        fire = true;
        break;
      case Trigger::kProbability:
        // The draw is consumed on every hit, fired or not, so the
        // decision stream is indexed purely by hit number.
        fire = splitmix_unit(p.rng_state) < p.spec.probability;
        break;
      case Trigger::kEveryNth:
        fire = p.spec.every_nth != 0 && hit % p.spec.every_nth == 0;
        break;
      case Trigger::kOneShot:
        fire = hit == p.spec.after_hits + 1;
        break;
    }
    if (fire && p.spec.max_fires != 0 && p.fires >= p.spec.max_fires) {
      fire = false;
    }
    if (fire) {
      ++p.fires;
      delay = p.spec.delay;
      if (p.spec.code != StatusCode::kOk) {
        injected.code = p.spec.code;
        injected.message = p.spec.message.empty()
                               ? std::string("injected fault: ") + point
                               : p.spec.message;
      }
      obs::metrics().counter(std::string("fault.") + point + ".fires").add();
    }
    obs::metrics().counter(std::string("fault.") + point + ".hits").add();
  }
  // Sleep outside the registry lock so a latency fault on one point
  // never stalls evaluation of the others.
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
  return injected;
}

void FaultRegistry::check(const char* point) {
  const Status s = evaluate(point);
  if (!s.ok()) throw StatusError(s.code, s.message);
}

bool FaultRegistry::fires(const char* point) { return !evaluate(point).ok(); }

PointStats FaultRegistry::stats(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  if (it == points_.end()) return {};
  return PointStats{it->second.hits, it->second.fires};
}

}  // namespace adr::fault
