// Attribute space service.
//
// Manages the registration of multi-dimensional attribute spaces and of
// user-defined mapping functions between them (paper section 2.1).  A
// MapFunction projects regions of the input dataset's attribute space into
// the output dataset's space; the planner buckets the selected output
// chunks into a uniform lattice and tests each projected input against
// its cells to obtain the chunk-level input->output mapping
// (core/planner/mapping.hpp).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/geometry.hpp"

namespace adr {

/// A registered attribute space: a name, a dimensionality, and an extent.
struct AttributeSpace {
  std::string name;
  Rect domain;

  int dims() const { return domain.dims(); }
};

/// User-defined mapping function from an input attribute space to an
/// output attribute space (the paper's `Map`).  The planner only needs the
/// region form; item-level mapping happens inside the application's
/// Aggregate function, which sees both chunks' geometry.
class MapFunction {
 public:
  virtual ~MapFunction() = default;
  virtual std::string name() const = 0;

  /// Projects an input-space region to the output-space region it may
  /// contribute to.  Must be conservative (cover all actual targets).
  virtual Rect project(const Rect& input_region) const = 0;
};

/// Identity projection for equal spaces, optionally dropping trailing
/// dimensions (e.g. (lon, lat, time) -> (lon, lat)).
class IdentityMap : public MapFunction {
 public:
  explicit IdentityMap(int output_dims = 0) : output_dims_(output_dims) {}
  std::string name() const override { return "identity"; }
  Rect project(const Rect& input_region) const override;

 private:
  int output_dims_;  // 0 = keep all dims
};

/// Per-dimension affine projection out[i] = scale[i]*in[i] + offset[i],
/// keeping the first output_dims dimensions, then inflating each side by
/// spread[i] (models point-spread / resampling footprints).
class AffineMap : public MapFunction {
 public:
  AffineMap(std::vector<double> scale, std::vector<double> offset, int output_dims,
            std::vector<double> spread = {});
  std::string name() const override { return "affine"; }
  Rect project(const Rect& input_region) const override;

 private:
  std::vector<double> scale_;
  std::vector<double> offset_;
  int output_dims_;
  std::vector<double> spread_;
};

/// Registry for spaces and mapping functions.
class AttributeSpaceService {
 public:
  void register_space(AttributeSpace space);
  const AttributeSpace* find_space(const std::string& name) const;

  void register_map(std::shared_ptr<MapFunction> map);
  const MapFunction* find_map(const std::string& name) const;

  std::vector<std::string> space_names() const;

 private:
  std::unordered_map<std::string, AttributeSpace> spaces_;
  std::unordered_map<std::string, std::shared_ptr<MapFunction>> maps_;
};

}  // namespace adr
