// R-tree spatial index (ADR's indexing service).
//
// After chunks are placed on the disk farm, an R-tree is built over their
// MBRs; at query time it returns the chunks whose MBRs intersect the range
// query (paper section 2.2).  Built by Sort-Tile-Recursive (STR) bulk
// loading; a dataset whose chunks change is re-indexed whole.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/geometry.hpp"

namespace adr {

class RTree {
 public:
  /// Leaf fanout / internal fanout.
  explicit RTree(int max_entries = 16);

  /// Builds the tree from scratch with STR bulk loading.
  /// `mbrs[i]` becomes the entry with value `i`.
  void bulk_load(const std::vector<Rect>& mbrs);

  /// Returns the values of all entries whose MBR intersects `query`,
  /// in ascending value order.
  std::vector<std::uint32_t> query(const Rect& query) const;

  /// Visits matching entries without materializing a vector.
  void visit(const Rect& query,
             const std::function<void(std::uint32_t, const Rect&)>& fn) const;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  int height() const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Root MBR (invalid Rect when empty).
  Rect bounds() const;

 private:
  struct Entry {
    Rect mbr;
    // Child node index for internal nodes; user value for leaves.
    std::uint32_t ref = 0;
  };
  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;
    Rect mbr() const;
  };

  std::uint32_t new_node(bool leaf);
  void visit_node(std::uint32_t node, const Rect& query,
                  const std::function<void(std::uint32_t, const Rect&)>& fn) const;
  int node_height(std::uint32_t node) const;

  int max_entries_;
  std::vector<Node> nodes_;
  std::uint32_t root_ = 0;
  std::size_t count_ = 0;
};

}  // namespace adr
