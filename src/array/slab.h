#pragma once

#include <cstdint>
#include <vector>

#include "array/atom.h"
#include "array/box.h"

namespace turbdb {

/// A dense, contiguous buffer holding field data for a rectangular region
/// of the grid (typically a worker's chunk plus its halo). Coordinates are
/// *extended* grid coordinates: they may run outside [0, n) along periodic
/// axes; the data placed there are the periodic images gathered from the
/// wrapped atoms.
///
/// Layout is component-planar: one x-fastest plane per component, so
/// consecutive points along x are adjacent floats (Stride(0) is 1) and a
/// stencil tap for several neighboring points is one contiguous load.
class Slab {
 public:
  Slab() = default;

  /// Allocates a zero-filled slab covering `region` with `ncomp`
  /// components per point.
  Slab(const Box3& region, int ncomp)
      : region_(region), ncomp_(ncomp),
        plane_(static_cast<size_t>(region.Volume())),
        data_(plane_ * ncomp, 0.0f) {}

  const Box3& region() const { return region_; }
  int ncomp() const { return ncomp_; }
  size_t SizeBytes() const { return data_.size() * sizeof(float); }

  /// Value at extended grid coordinates (x, y, z), component c.
  /// Precondition: region().ContainsPoint(x, y, z).
  float At(int64_t x, int64_t y, int64_t z, int c) const {
    return data_[Index(x, y, z, c)];
  }
  float& At(int64_t x, int64_t y, int64_t z, int c) {
    return data_[Index(x, y, z, c)];
  }

  /// Copies the intersection of `atom`'s data into this slab,
  /// de-interleaving the atom's point-major rows into the component
  /// planes. `dest_box` is the extended-coordinate box the atom's data
  /// should occupy (the atom's own GridBox() translated by the periodic
  /// shift the gatherer applied; for interior atoms it equals
  /// atom.GridBox()).
  void CopyAtom(const Atom& atom, const Box3& dest_box);

  const std::vector<float>& data() const { return data_; }

  /// Address of component c at (x, y, z), for line kernels that walk the
  /// buffer with Stride() and ComponentStride(). Same precondition as
  /// At().
  const float* Ptr(int64_t x, int64_t y, int64_t z, int c) const {
    return data_.data() + Index(x, y, z, c);
  }

  /// Distance in floats between neighboring points along `axis`.
  int64_t Stride(int axis) const {
    int64_t stride = 1;
    for (int d = 0; d < axis; ++d) stride *= region_.Extent(d);
    return stride;
  }

  /// Distance in floats between two components of one point (the size of
  /// a component plane).
  int64_t ComponentStride() const { return static_cast<int64_t>(plane_); }

 private:
  size_t Index(int64_t x, int64_t y, int64_t z, int c) const {
    const int64_t i = x - region_.lo[0];
    const int64_t j = y - region_.lo[1];
    const int64_t k = z - region_.lo[2];
    return static_cast<size_t>(c) * plane_ +
           (static_cast<size_t>(k) * region_.Extent(1) + j) *
               region_.Extent(0) +
           i;
  }

  Box3 region_;
  int ncomp_ = 0;
  size_t plane_ = 0;  ///< Floats per component plane: region_.Volume().
  std::vector<float> data_;
};

}  // namespace turbdb
