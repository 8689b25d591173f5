#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "array/geometry.h"
#include "array/slab.h"
#include "common/result.h"

namespace turbdb {

/// Evaluates first partial derivatives of field components held in a Slab
/// at grid nodes, honoring the grid's periodicity and stretching:
///
///  - periodic uniform axes use the classic centered stencil of the
///    configured order (the halo gathered into the slab supplies the
///    wrapped neighbor values);
///  - non-periodic axes switch to shifted (one-sided) stencils of the
///    same polynomial order near the walls;
///  - the stretched channel y axis uses per-node Fornberg weights
///    computed from the physical node coordinates.
///
/// All weight tables are precomputed at construction, so Partial() on the
/// hot path is a small dot product; line kernels resolve a Stencil once
/// per line and Apply() it at every node.
class Differentiator {
 public:
  /// Fails if `order` is unsupported or the geometry is invalid.
  static Result<Differentiator> Create(const GridGeometry& geometry,
                                       int order);

  int order() const { return order_; }
  int half_width() const { return half_width_; }
  const GridGeometry& geometry() const { return geometry_; }

  /// d(component c)/d(axis) at grid node (x, y, z). The slab must contain
  /// the full stencil support for that node.
  double Partial(const Slab& slab, int c, int axis, int64_t x, int64_t y,
                 int64_t z) const;

  /// The first-derivative stencil along one axis at one node, resolved
  /// against a slab's layout. With p pointing at the node's value of some
  /// component, the partial is the sum of weight[m] * p[first + m * stride]
  /// over m = 0 .. order(), in ascending m, from 0.0. A centered stencil
  /// skips its middle node, whose weight is 0.
  struct Stencil {
    const double* weight = nullptr;
    int64_t first = 0;   ///< Offset in floats of node m = 0 from p.
    int64_t stride = 0;  ///< Floats between consecutive stencil nodes.
    bool centered = true;
  };

  /// The stencil along `axis` at node (x, y, z) of `slab`. It is the same
  /// for every node of an x-line, except along a walled x axis, where the
  /// stencils near the walls are shifted (see StencilVariesAlongX()).
  Stencil StencilAt(const Slab& slab, int axis, int64_t x, int64_t y,
                    int64_t z) const;

  /// True when StencilAt() varies along an x-line (a walled x axis).
  bool StencilVariesAlongX() const { return !uniform_centered_[0]; }

  /// Partial()'s sum for `stencil` at p, with the stencil width fixed at
  /// compile time (kOrder must equal order()) so that the taps unroll.
  /// Line kernels call it for every partial of a node while the stencils,
  /// resolved once per line, stay in registers.
  template <int kOrder>
  static double Apply(const Stencil& stencil, const float* p) {
    double sum = 0.0;
#pragma GCC unroll 9
    for (int m = 0; m <= kOrder; ++m) {
      if (stencil.centered && m == kOrder / 2) continue;
      sum += stencil.weight[m] * p[stencil.first + m * stencil.stride];
    }
    return sum;
  }

 private:
  Differentiator() = default;

  /// One node's stencil: weights over nodes [start, start + width).
  /// Weights live at weight_pool_[axis][pool_offset .. pool_offset+width)
  /// (an offset rather than a pointer keeps the object copyable).
  struct Row {
    int64_t start = 0;
    size_t pool_offset = 0;
  };

  void BuildAxis(int axis);

  GridGeometry geometry_;
  int order_ = 4;
  int half_width_ = 2;
  int width_ = 5;  ///< order + 1 nodes per stencil.

  /// For each axis: either a single centered row (periodic uniform axes;
  /// `uniform_centered_[axis]` true) or one row per node index.
  std::array<bool, 3> uniform_centered_{true, true, true};
  std::array<std::vector<double>, 3> centered_weights_;
  std::array<std::vector<Row>, 3> rows_;
  std::array<std::vector<double>, 3> weight_pool_;
};

}  // namespace turbdb
