#include "array/slab.h"

#include "common/logging.h"

namespace turbdb {

void Slab::CopyAtom(const Atom& atom, const Box3& dest_box) {
  TURBDB_DCHECK(atom.ncomp == ncomp_);
  const Box3 overlap = region_.Intersection(dest_box);
  if (overlap.Empty()) return;
  const int w = atom.width;
  const int ncomp = ncomp_;
  const int64_t count = overlap.Extent(0);
  const int ai = static_cast<int>(overlap.lo[0] - dest_box.lo[0]);
  for (int64_t z = overlap.lo[2]; z < overlap.hi[2]; ++z) {
    const int ak = static_cast<int>(z - dest_box.lo[2]);
    for (int64_t y = overlap.lo[1]; y < overlap.hi[1]; ++y) {
      const int aj = static_cast<int>(y - dest_box.lo[1]);
      // One point-major x-run of the atom, split across the planes.
      const float* src = atom.data.data() +
                         ((static_cast<size_t>(ak) * w + aj) * w + ai) * ncomp;
      float* dst = data_.data() + Index(overlap.lo[0], y, z, 0);
      for (int64_t i = 0; i < count; ++i) {
        for (int c = 0; c < ncomp; ++c) dst[c * plane_ + i] = src[i * ncomp + c];
      }
    }
  }
}

}  // namespace turbdb
