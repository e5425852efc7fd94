#include "storage/rtree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace adr {

RTree::RTree(int max_entries) : max_entries_(max_entries) {
  assert(max_entries_ >= 4);
  root_ = new_node(/*leaf=*/true);
}

Rect RTree::Node::mbr() const {
  Rect r;
  for (const Entry& e : entries) r = Rect::join(r, e.mbr);
  return r;
}

std::uint32_t RTree::new_node(bool leaf) {
  nodes_.push_back(Node{leaf, {}});
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void RTree::bulk_load(const std::vector<Rect>& mbrs) {
  nodes_.clear();
  count_ = mbrs.size();
  if (mbrs.empty()) {
    root_ = new_node(true);
    return;
  }
  const int dims = mbrs.front().dims();

  // Current level: entries to pack into nodes one level up.
  std::vector<Entry> level;
  level.reserve(mbrs.size());
  for (std::uint32_t i = 0; i < mbrs.size(); ++i) level.push_back({mbrs[i], i});

  bool leaf = true;
  while (true) {
    // STR: recursively partition the entries into vertical "slabs" per
    // dimension, then pack runs of max_entries_ into nodes.
    const std::size_t n = level.size();
    const auto num_nodes =
        static_cast<std::size_t>(std::ceil(static_cast<double>(n) / max_entries_));
    if (num_nodes <= 1) {
      const std::uint32_t node = new_node(leaf);
      nodes_[node].entries = std::move(level);
      root_ = node;
      return;
    }

    // Sort-tile along each dimension in turn.
    std::function<void(std::span<Entry>, int)> tile = [&](std::span<Entry> part, int dim) {
      if (dim >= dims - 1 || part.size() <= static_cast<std::size_t>(max_entries_)) {
        std::sort(part.begin(), part.end(), [dim](const Entry& a, const Entry& b) {
          return a.mbr.center(dim) < b.mbr.center(dim);
        });
        return;
      }
      std::sort(part.begin(), part.end(), [dim](const Entry& a, const Entry& b) {
        return a.mbr.center(dim) < b.mbr.center(dim);
      });
      const auto nodes_here =
          static_cast<double>(std::ceil(static_cast<double>(part.size()) / max_entries_));
      const auto slabs = static_cast<std::size_t>(
          std::ceil(std::pow(nodes_here, 1.0 / static_cast<double>(dims - dim))));
      const std::size_t per_slab =
          (part.size() + slabs - 1) / std::max<std::size_t>(slabs, 1);
      for (std::size_t s = 0; s * per_slab < part.size(); ++s) {
        const std::size_t lo = s * per_slab;
        const std::size_t hi = std::min(part.size(), lo + per_slab);
        tile(part.subspan(lo, hi - lo), dim + 1);
      }
    };
    tile(level, 0);

    std::vector<Entry> parents;
    parents.reserve(num_nodes);
    for (std::size_t i = 0; i < n; i += static_cast<std::size_t>(max_entries_)) {
      const std::size_t hi = std::min(n, i + static_cast<std::size_t>(max_entries_));
      const std::uint32_t node = new_node(leaf);
      nodes_[node].entries.assign(level.begin() + static_cast<std::ptrdiff_t>(i),
                                  level.begin() + static_cast<std::ptrdiff_t>(hi));
      parents.push_back({nodes_[node].mbr(), node});
    }
    level = std::move(parents);
    leaf = false;
  }
}

void RTree::visit_node(std::uint32_t node, const Rect& query,
                       const std::function<void(std::uint32_t, const Rect&)>& fn) const {
  const Node& n = nodes_[node];
  for (const Entry& e : n.entries) {
    if (!e.mbr.intersects(query)) continue;
    if (n.leaf) {
      fn(e.ref, e.mbr);
    } else {
      visit_node(e.ref, query, fn);
    }
  }
}

void RTree::visit(const Rect& query,
                  const std::function<void(std::uint32_t, const Rect&)>& fn) const {
  if (nodes_.empty()) return;
  visit_node(root_, query, fn);
}

std::vector<std::uint32_t> RTree::query(const Rect& q) const {
  std::vector<std::uint32_t> out;
  visit(q, [&out](std::uint32_t v, const Rect&) { out.push_back(v); });
  std::sort(out.begin(), out.end());
  return out;
}

int RTree::node_height(std::uint32_t node) const {
  const Node& n = nodes_[node];
  if (n.leaf) return 1;
  if (n.entries.empty()) return 1;
  return 1 + node_height(n.entries.front().ref);
}

int RTree::height() const {
  if (nodes_.empty()) return 0;
  return node_height(root_);
}

Rect RTree::bounds() const {
  if (nodes_.empty()) return Rect();
  return nodes_[root_].mbr();
}

}  // namespace adr
