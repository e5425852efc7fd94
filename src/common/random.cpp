#include "common/random.hpp"

#include <cassert>
#include <numeric>

namespace adr {

std::size_t Rng::weighted_index(std::span<const double> weights) {
  assert(!weights.empty());
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(total > 0.0);
  double r = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a + (b << 6) + (b >> 2);
  return splitmix64(state);
}

}  // namespace adr
