#include "array/slab.h"

#include <gtest/gtest.h>

namespace turbdb {
namespace {

Atom FilledAtom(uint64_t zindex, int ncomp) {
  Atom atom(AtomKey{0, zindex}, 8, ncomp);
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      for (int i = 0; i < 8; ++i) {
        for (int c = 0; c < ncomp; ++c) {
          atom.At(i, j, k, c) =
              static_cast<float>(1000 * c + 100 * k + 10 * j + i);
        }
      }
    }
  }
  return atom;
}

TEST(SlabTest, AllocatesZeroFilled) {
  Slab slab(Box3(0, 0, 0, 4, 4, 4), 2);
  EXPECT_EQ(slab.SizeBytes(), 4u * 4 * 4 * 2 * sizeof(float));
  EXPECT_EQ(slab.At(3, 3, 3, 1), 0.0f);
}

TEST(SlabTest, CopyAtomAtItsOwnPosition) {
  Slab slab(Box3(0, 0, 0, 16, 16, 16), 3);
  const Atom atom = FilledAtom(MortonEncode3(1, 0, 1), 3);
  slab.CopyAtom(atom, atom.GridBox());
  // Atom (1,0,1) covers grid [8,16)x[0,8)x[8,16).
  EXPECT_EQ(slab.At(8, 0, 8, 0), 0.0f);   // Local (0,0,0) -> value 0.
  EXPECT_EQ(slab.At(9, 2, 11, 0), 321.0f);  // k=3, j=2, i=1.
  EXPECT_EQ(slab.At(9, 2, 11, 2), 2321.0f);
  // Outside the atom: untouched.
  EXPECT_EQ(slab.At(7, 0, 8, 0), 0.0f);
}

TEST(SlabTest, CopyAtomAtTranslatedPeriodicImage) {
  // The gather places a wrapped atom at its unwrapped (negative)
  // destination: atom data must land at the translated box.
  Slab slab(Box3(-8, 0, 0, 8, 8, 8), 1);
  const Atom atom = FilledAtom(MortonEncode3(3, 0, 0), 1);  // Source atom.
  const Box3 dest(-8, 0, 0, 0, 8, 8);  // Periodic image position.
  slab.CopyAtom(atom, dest);
  EXPECT_EQ(slab.At(-8, 0, 0, 0), 0.0f);
  EXPECT_EQ(slab.At(-7, 2, 3, 0), 321.0f);
}

TEST(SlabTest, CopyAtomClipsToSlabRegion) {
  // Slab covers only part of the atom: only the overlap is copied.
  Slab slab(Box3(4, 4, 4, 8, 8, 8), 1);
  const Atom atom = FilledAtom(MortonEncode3(0, 0, 0), 1);
  slab.CopyAtom(atom, atom.GridBox());
  EXPECT_EQ(slab.At(4, 4, 4, 0), 444.0f);
  EXPECT_EQ(slab.At(7, 7, 7, 0), 777.0f);
  // Empty overlap is a no-op.
  const Atom far_atom = FilledAtom(MortonEncode3(3, 3, 3), 1);
  slab.CopyAtom(far_atom, far_atom.GridBox());
  EXPECT_EQ(slab.At(4, 4, 4, 0), 444.0f);
}

TEST(SlabTest, MultiComponentLayoutIsPlanar) {
  Slab slab(Box3(0, 0, 0, 2, 2, 2), 3);
  slab.At(1, 0, 0, 0) = 1.0f;
  slab.At(1, 0, 0, 1) = 2.0f;
  slab.At(1, 0, 0, 2) = 3.0f;
  slab.At(0, 1, 1, 2) = 4.0f;
  const std::vector<float>& data = slab.data();
  // One x-fastest plane of 8 points per component: point (1,0,0) is
  // flat index 1 of each plane, point (0,1,1) index 2 + 4.
  EXPECT_EQ(slab.ComponentStride(), 8);
  EXPECT_EQ(slab.Stride(0), 1);
  EXPECT_EQ(slab.Stride(1), 2);
  EXPECT_EQ(slab.Stride(2), 4);
  EXPECT_EQ(data[1], 1.0f);
  EXPECT_EQ(data[8 + 1], 2.0f);
  EXPECT_EQ(data[16 + 1], 3.0f);
  EXPECT_EQ(data[16 + 6], 4.0f);
  EXPECT_EQ(slab.Ptr(1, 0, 0, 2), data.data() + 17);
}

TEST(SlabTest, CopyAtomDeinterleavesIntoPlanes) {
  // A clipped multi-component copy: every component of every copied
  // point lands in its own plane, and nothing else is written.
  Slab slab(Box3(3, 0, 0, 12, 8, 8), 3);
  const Atom atom = FilledAtom(MortonEncode3(0, 0, 0), 3);
  slab.CopyAtom(atom, atom.GridBox());
  for (int64_t z = 0; z < 8; ++z) {
    for (int64_t y = 0; y < 8; ++y) {
      for (int64_t x = 3; x < 12; ++x) {
        for (int c = 0; c < 3; ++c) {
          const float expected =
              x < 8 ? static_cast<float>(1000 * c + 100 * z + 10 * y + x)
                    : 0.0f;
          ASSERT_EQ(slab.At(x, y, z, c), expected)
              << x << "," << y << "," << z << " c" << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace turbdb
