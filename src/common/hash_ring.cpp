#include "common/hash_ring.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/random.hpp"

namespace adr {

std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }

namespace {

/// Placement of vnode `v` of `node`: a second mix decorrelates the
/// vnode streams of numerically adjacent node ids (ports are
/// consecutive in practice).
std::uint64_t vnode_point(std::uint64_t node, int v) {
  return mix64(mix64(node) + static_cast<std::uint64_t>(v));
}

}  // namespace

HashRing::HashRing(int vnodes_per_node) : vnodes_per_node_(vnodes_per_node) {
  if (vnodes_per_node < 1) {
    throw std::invalid_argument("HashRing: vnodes_per_node must be >= 1");
  }
}

void HashRing::add_node(std::uint64_t node) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (it != nodes_.end() && *it == node) return;
  nodes_.insert(it, node);
  for (int v = 0; v < vnodes_per_node_; ++v) {
    ring_.push_back(VNode{vnode_point(node, v), node});
  }
  std::sort(ring_.begin(), ring_.end(), [](const VNode& a, const VNode& b) {
    return a.point != b.point ? a.point < b.point : a.node < b.node;
  });
}

bool HashRing::remove_node(std::uint64_t node) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (it == nodes_.end() || *it != node) return false;
  nodes_.erase(it);
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [node](const VNode& v) { return v.node == node; }),
              ring_.end());
  return true;
}

bool HashRing::contains(std::uint64_t node) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

std::size_t HashRing::successor(std::uint64_t point) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const VNode& v, std::uint64_t p) { return v.point < p; });
  // Wrap: a key past the last vnode belongs to the first one.
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

std::uint64_t HashRing::lookup(std::uint64_t key) const {
  if (ring_.empty()) throw std::logic_error("HashRing: lookup on empty ring");
  return ring_[successor(mix64(key))].node;
}

std::vector<std::uint64_t> HashRing::replicas(std::uint64_t key,
                                              std::size_t n) const {
  std::vector<std::uint64_t> out;
  if (ring_.empty() || n == 0) return out;
  const std::size_t want = std::min(n, nodes_.size());
  out.reserve(want);
  std::size_t i = successor(mix64(key));
  for (std::size_t seen = 0; seen < ring_.size() && out.size() < want; ++seen) {
    const std::uint64_t node = ring_[(i + seen) % ring_.size()].node;
    if (std::find(out.begin(), out.end(), node) == out.end()) {
      out.push_back(node);
    }
  }
  return out;
}

}  // namespace adr
