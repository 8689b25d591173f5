// Property-style sweeps: the distributed, cached engine must be
// observationally equivalent to single-slab brute-force evaluation for
// every combination of FD order, cluster topology and query box, and a
// random sequence of cached queries must return exactly what uncached
// recomputation returns.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "common/rng.h"
#include "test_util.h"

namespace turbdb {
namespace {

using testing::BruteForceThreshold;
using testing::FullSlabWithHalo;
using testing::MakeTestDb;
using testing::SmallTestSpec;

constexpr int64_t kN = 32;

/// (fd_order, nodes, processes)
using EngineParams = std::tuple<int, int, int>;

class EngineEquivalence : public ::testing::TestWithParam<EngineParams> {};

TEST_P(EngineEquivalence, MatchesBruteForce) {
  const auto [fd_order, nodes, processes] = GetParam();
  auto db = MakeTestDb(kN, nodes, processes, 1);
  ASSERT_NE(db, nullptr);

  const GridGeometry geometry = GridGeometry::Isotropic(kN);
  SyntheticField generator(SmallTestSpec(7), geometry, 3);
  Slab slab = FullSlabWithHalo(generator, 0, fd_order / 2);
  CurlField kernel;
  auto diff = Differentiator::Create(geometry, fd_order);
  ASSERT_TRUE(diff.ok());

  ThresholdQuery query;
  query.dataset = "iso";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3::WholeGrid(kN, kN, kN);
  query.threshold = 1.5;
  query.fd_order = fd_order;
  QueryOptions options;
  options.use_cache = false;
  auto result = db->Threshold(query, options);
  ASSERT_TRUE(result.ok()) << result.status();

  const auto expected =
      BruteForceThreshold(slab, kernel, *diff, query.box, query.threshold);
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(result->points.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(result->points[i].zindex, expected[i].zindex) << "at " << i;
    ASSERT_NEAR(result->points[i].norm, expected[i].norm,
                1e-4 * (1.0 + expected[i].norm));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Values(EngineParams{2, 1, 1}, EngineParams{2, 4, 2},
                      EngineParams{4, 2, 1}, EngineParams{4, 3, 4},
                      EngineParams{6, 2, 2}, EngineParams{8, 4, 1},
                      EngineParams{8, 2, 3}));

/// Random boxes must also match (exercises partial atoms, node borders,
/// halo wrap interplay with box clipping).
class RandomBoxes : public ::testing::TestWithParam<int> {};

TEST_P(RandomBoxes, SubBoxMatchesBruteForce) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SplitMix64 rng(seed * 7919 + 3);
  auto db = MakeTestDb(kN, 3, 2, 1);
  ASSERT_NE(db, nullptr);

  const GridGeometry geometry = GridGeometry::Isotropic(kN);
  SyntheticField generator(SmallTestSpec(7), geometry, 3);
  Slab slab = FullSlabWithHalo(generator, 0, 2);
  CurlField kernel;
  auto diff = Differentiator::Create(geometry, 4);
  ASSERT_TRUE(diff.ok());

  for (int trial = 0; trial < 4; ++trial) {
    Box3 box;
    for (int d = 0; d < 3; ++d) {
      box.lo[d] = static_cast<int64_t>(rng.NextBounded(kN - 4));
      box.hi[d] =
          box.lo[d] + 1 + static_cast<int64_t>(rng.NextBounded(
                              static_cast<uint64_t>(kN - box.lo[d])));
      box.hi[d] = std::min<int64_t>(box.hi[d], kN);
    }
    const double threshold = rng.NextDouble(0.5, 3.0);
    ThresholdQuery query;
    query.dataset = "iso";
    query.raw_field = "velocity";
    query.derived_field = "vorticity";
    query.timestep = 0;
    query.box = box;
    query.threshold = threshold;
    QueryOptions options;
    options.use_cache = false;
    auto result = db->Threshold(query, options);
    ASSERT_TRUE(result.ok()) << result.status();
    const auto expected =
        BruteForceThreshold(slab, kernel, *diff, box, threshold);
    ASSERT_EQ(result->points.size(), expected.size())
        << "box " << box.ToString() << " threshold " << threshold;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(result->points[i].zindex, expected[i].zindex);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBoxes, ::testing::Range(1, 6));

/// Cache metamorphic property: an arbitrary interleaving of cached
/// queries returns exactly what a cache-less engine returns.
class CacheEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CacheEquivalence, RandomQuerySequenceMatchesUncached) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 131 + 17;
  SplitMix64 rng(seed);
  auto db = MakeTestDb(kN, 2, 2, 2);
  ASSERT_NE(db, nullptr);

  for (int step = 0; step < 12; ++step) {
    ThresholdQuery query;
    query.dataset = "iso";
    query.raw_field = "velocity";
    query.derived_field = "vorticity";
    query.timestep = static_cast<int32_t>(rng.NextBounded(2));
    // Alternate whole-grid and sub-box queries; repeat thresholds often
    // to provoke hits, including exact repeats and higher thresholds.
    if (rng.NextBounded(2) == 0) {
      query.box = Box3::WholeGrid(kN, kN, kN);
    } else {
      const int64_t lo = static_cast<int64_t>(rng.NextBounded(16));
      query.box = Box3(lo, lo / 2, 0, lo + 12, lo / 2 + 14, 20);
    }
    query.threshold = 1.0 + 0.5 * static_cast<double>(rng.NextBounded(5));

    auto cached = db->Threshold(query);
    QueryOptions no_cache;
    no_cache.use_cache = false;
    auto fresh = db->Threshold(query, no_cache);
    ASSERT_TRUE(cached.ok()) << cached.status();
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_EQ(cached->points.size(), fresh->points.size())
        << "step " << step << " threshold " << query.threshold << " box "
        << query.box.ToString();
    for (size_t i = 0; i < fresh->points.size(); ++i) {
      ASSERT_EQ(cached->points[i].zindex, fresh->points[i].zindex);
      ASSERT_EQ(cached->points[i].norm, fresh->points[i].norm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEquivalence, ::testing::Range(1, 5));

/// Thresholds one double ulp above a stored (float) norm f: the fresh path
/// and the node cache must agree on dropping the point that carries f.
/// Random thresholds almost never land within a float half-ulp of a norm,
/// so CacheEquivalence cannot catch a predicate that differs between them.
TEST(CachePredicateTest, ThresholdsJustAboveStoredNormsMatchUncached) {
  auto db = MakeTestDb(kN, 2, 2, 1);
  ASSERT_NE(db, nullptr);
  ThresholdQuery query;
  query.dataset = "iso";
  query.raw_field = "velocity";
  query.derived_field = "vorticity";
  query.timestep = 0;
  query.box = Box3::WholeGrid(kN, kN, kN);
  query.threshold = 0.0;
  auto warm = db->Threshold(query);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(warm->points.size(), static_cast<size_t>(kN * kN * kN));

  QueryOptions no_cache;
  no_cache.use_cache = false;
  SplitMix64 rng(2015);
  for (int probe = 0; probe < 200; ++probe) {
    const float stored =
        warm->points[rng.NextBounded(warm->points.size())].norm;
    query.threshold = std::nextafter(static_cast<double>(stored),
                                     std::numeric_limits<double>::infinity());
    auto cached = db->Threshold(query);
    auto fresh = db->Threshold(query, no_cache);
    ASSERT_TRUE(cached.ok()) << cached.status();
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(cached->all_cache_hits) << "probe " << probe;
    ASSERT_EQ(cached->points.size(), fresh->points.size())
        << "probe " << probe << " threshold " << query.threshold;
    ASSERT_TRUE(cached->points == fresh->points)
        << "probe " << probe << " threshold " << query.threshold;
  }
}

}  // namespace
}  // namespace turbdb
