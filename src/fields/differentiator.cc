#include "fields/differentiator.h"

#include <algorithm>

#include "common/logging.h"
#include "fields/stencil.h"

namespace turbdb {

Result<Differentiator> Differentiator::Create(const GridGeometry& geometry,
                                              int order) {
  if (!IsSupportedFdOrder(order)) {
    return Status::InvalidArgument("unsupported finite-difference order " +
                                   std::to_string(order));
  }
  TURBDB_RETURN_NOT_OK(geometry.Validate());
  for (int axis = 0; axis < 3; ++axis) {
    if (geometry.extent(axis) < order + 1) {
      return Status::InvalidArgument(
          "grid too small for the requested stencil order");
    }
  }
  Differentiator diff;
  diff.geometry_ = geometry;
  diff.order_ = order;
  diff.half_width_ = FdHalfWidth(order);
  diff.width_ = order + 1;
  for (int axis = 0; axis < 3; ++axis) diff.BuildAxis(axis);
  return diff;
}

void Differentiator::BuildAxis(int axis) {
  const int64_t n = geometry_.extent(axis);
  const double dx = geometry_.Spacing(axis);
  if (geometry_.periodic(axis) && !geometry_.stretched(axis)) {
    uniform_centered_[axis] = true;
    auto coeffs = CenteredFirstDerivative(order_);
    TURBDB_CHECK(coeffs.ok());
    centered_weights_[axis] = std::move(coeffs).value();
    for (double& w : centered_weights_[axis]) w /= dx;
    // Partial() and Apply() skip the middle node by position.
    for (int m = 0; m < width_; ++m) {
      TURBDB_CHECK((centered_weights_[axis][static_cast<size_t>(m)] == 0.0) ==
                   (m == half_width_));
    }
    return;
  }
  // Wall-bounded (and possibly stretched) axis: one stencil row per node,
  // shifted near the walls so every node stays inside the domain.
  uniform_centered_[axis] = false;
  rows_[axis].resize(static_cast<size_t>(n));
  weight_pool_[axis].assign(static_cast<size_t>(n) * width_, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    int64_t start = i - half_width_;
    start = std::max<int64_t>(0, std::min<int64_t>(start, n - width_));
    std::vector<double> nodes(static_cast<size_t>(width_));
    for (int m = 0; m < width_; ++m) {
      nodes[static_cast<size_t>(m)] = geometry_.Coord(axis, start + m);
    }
    const double x0 = geometry_.Coord(axis, i);
    std::vector<double> weights = FornbergWeights(x0, nodes, 1);
    Row& row = rows_[axis][static_cast<size_t>(i)];
    row.start = start;
    row.pool_offset = static_cast<size_t>(i) * width_;
    std::copy(weights.begin(), weights.end(),
              weight_pool_[axis].begin() + row.pool_offset);
  }
}

Differentiator::Stencil Differentiator::StencilAt(const Slab& slab,
                                                  int axis, int64_t x,
                                                  int64_t y, int64_t z) const {
  Stencil stencil;
  stencil.stride = slab.Stride(axis);
  if (uniform_centered_[axis]) {
    stencil.weight = centered_weights_[axis].data();
    stencil.first = -half_width_ * stencil.stride;
    return stencil;
  }
  const int64_t coord = axis == 0 ? x : (axis == 1 ? y : z);
  const Row& row = rows_[axis][static_cast<size_t>(coord)];
  stencil.weight = weight_pool_[axis].data() + row.pool_offset;
  stencil.first = (row.start - coord) * stencil.stride;
  stencil.centered = false;
  return stencil;
}

double Differentiator::Partial(const Slab& slab, int c, int axis, int64_t x,
                               int64_t y, int64_t z) const {
  const Stencil stencil = StencilAt(slab, axis, x, y, z);
  const float* p = slab.Ptr(x, y, z, c);
  double sum = 0.0;
  for (int m = 0; m < width_; ++m) {
    if (stencil.centered && m == half_width_) continue;
    sum += stencil.weight[m] * p[stencil.first + m * stencil.stride];
  }
  return sum;
}

}  // namespace turbdb
