#pragma once

#include <cstdint>

#include "array/morton.h"

namespace turbdb {

/// One threshold-query result row: the Morton z-index of a grid point
/// whose derived-field norm met the threshold, and that norm. This is
/// exactly the schema of the paper's cacheData table (zindex, dataValue).
struct ThresholdPoint {
  uint64_t zindex = 0;
  float norm = 0.0f;

  void Coords(uint32_t* x, uint32_t* y, uint32_t* z) const {
    MortonDecode3(zindex, x, y, z);
  }

  bool operator==(const ThresholdPoint& other) const {
    return zindex == other.zindex && norm == other.norm;
  }
};

/// The threshold predicate of every path — the fresh evaluate loop and
/// both caches. It tests the norm as stored and sent (a float) so that a
/// cached answer filtered at k equals a fresh evaluation at k, and the
/// subsumption rule (k >= cached k => filter the cached set) is sound.
inline bool MeetsThreshold(float stored_norm, double k) {
  return static_cast<double>(stored_norm) >= k;
}

/// The top-k order: the larger norm first, ties broken by the smaller
/// z-index. Every top-k merge uses it, so which tied points make the cut
/// does not depend on traversal order or on how the work was split.
inline bool RanksAbove(const ThresholdPoint& a, const ThresholdPoint& b) {
  return a.norm > b.norm || (a.norm == b.norm && a.zindex < b.zindex);
}

/// Builds the result row for grid point (x, y, z).
inline ThresholdPoint MakeThresholdPoint(uint32_t x, uint32_t y, uint32_t z,
                                         float norm) {
  return ThresholdPoint{MortonEncode3(x, y, z), norm};
}

}  // namespace turbdb
