// Indexing service: pluggable spatial indices over chunk MBRs.
//
// "Indexing service manages various indices (default and user-provided)
// for the datasets stored in the ADR back-end.  An index returns the disk
// locations of the set of data chunks that contain data items that fall
// inside the given multi-dimensional range query." (paper section 2.1)
//
// SpatialIndex is the user-extension point; RTreeIndex (default) wraps
// the STR-bulk-loaded R-tree and GridIndex is a uniform-grid alternative
// that wins on dense regular layouts.  IndexRegistry maps index names to
// factories so applications can register their own.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/geometry.hpp"
#include "storage/rtree.hpp"

namespace adr {

class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual std::string name() const = 0;

  /// (Re)builds the index; entry `i` of `mbrs` gets value `i`.
  virtual void build(const std::vector<Rect>& mbrs) = 0;

  /// Values of all entries intersecting `range`, ascending.
  virtual std::vector<std::uint32_t> query(const Rect& range) const = 0;

  virtual std::size_t size() const = 0;
};

/// Default index: the R-tree (STR bulk load).
class RTreeIndex : public SpatialIndex {
 public:
  explicit RTreeIndex(int max_entries = 16) : tree_(max_entries) {}
  std::string name() const override { return "rtree"; }
  void build(const std::vector<Rect>& mbrs) override { tree_.bulk_load(mbrs); }
  std::vector<std::uint32_t> query(const Rect& range) const override {
    return tree_.query(range);
  }
  std::size_t size() const override { return tree_.size(); }

 private:
  RTree tree_;
};

/// Uniform-grid index: the domain bounding box is cut into roughly
/// sqrt(n) x sqrt(n) cells (2-D; higher dims use the first two); each
/// cell lists the entries overlapping it.  Cheap to build and fast on
/// regular dense layouts; degrades when MBRs are wildly non-uniform.
class GridIndex : public SpatialIndex {
 public:
  /// cells_hint <= 0 picks ~sqrt(n) cells per side automatically.
  explicit GridIndex(int cells_hint = 0) : cells_hint_(cells_hint) {}
  std::string name() const override { return "grid"; }
  void build(const std::vector<Rect>& mbrs) override;
  std::vector<std::uint32_t> query(const Rect& range) const override;
  std::size_t size() const override { return entries_.size(); }
  int cells_per_side() const { return cells_; }

 private:
  void cell_span(const Rect& r, int& x0, int& x1, int& y0, int& y1) const;

  int cells_hint_;
  int cells_ = 1;
  Rect bounds_;
  std::vector<Rect> entries_;
  std::vector<std::vector<std::uint32_t>> buckets_;
};

/// Registry of named index factories; "rtree" and "grid" are built in.
class IndexRegistry {
 public:
  using Factory = std::function<std::unique_ptr<SpatialIndex>()>;

  IndexRegistry();

  void register_index(const std::string& name, Factory factory);

  /// Creates an index; throws std::invalid_argument for unknown names.
  std::unique_ptr<SpatialIndex> create(const std::string& name) const;

  bool contains(const std::string& name) const { return factories_.contains(name); }
  std::vector<std::string> names() const;

 private:
  std::unordered_map<std::string, Factory> factories_;
};

}  // namespace adr
