// Property-style sweeps: the distributed, cached engine must be
// observationally equivalent to single-slab brute-force evaluation for
// every combination of FD order, cluster topology and query box, and a
// random sequence of cached queries must return exactly what uncached
// recomputation returns.

#include <gtest/gtest.h>

#include <algorithm>
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

/// Brute-force pdf over `box`: the node's binning of the double norm.
std::vector<uint64_t> BruteForcePdf(const Slab& slab,
                                    const DerivedField& kernel,
                                    const Differentiator& diff,
                                    const Box3& box, double bin_width,
                                    int num_bins) {
  std::vector<uint64_t> counts(static_cast<size_t>(num_bins) + 1, 0);
  for (int64_t z = box.lo[2]; z < box.hi[2]; ++z) {
    for (int64_t y = box.lo[1]; y < box.hi[1]; ++y) {
      for (int64_t x = box.lo[0]; x < box.hi[0]; ++x) {
        const double scaled = kernel.NormAt(slab, diff, x, y, z) / bin_width;
        ++counts[scaled < num_bins ? static_cast<size_t>(scaled)
                                   : static_cast<size_t>(num_bins)];
      }
    }
  }
  return counts;
}

/// Brute-force top-k over `box`, in RanksAbove() order.
std::vector<ThresholdPoint> BruteForceTopK(const Slab& slab,
                                           const DerivedField& kernel,
                                           const Differentiator& diff,
                                           const Box3& box, uint64_t k) {
  std::vector<ThresholdPoint> points = BruteForceThreshold(
      slab, kernel, diff, box, -std::numeric_limits<double>::infinity());
  std::sort(points.begin(), points.end(), RanksAbove);
  if (points.size() > k) points.resize(k);
  return points;
}

/// Threshold, pdf and top-k answers equal the single-slab oracle byte for
/// byte, over the whole grid and over a sub-box whose stencils reach
/// across the periodic wrap (it touches the low x, high y and low z faces)
/// and whose x-extent ends mid-atom, with one and with four processes per
/// node.
TEST(OracleEquivalence, ThresholdPdfAndTopKMatchBruteForce) {
  const GridGeometry geometry = GridGeometry::Isotropic(kN);
  SyntheticField generator(SmallTestSpec(7), geometry, 3);
  const Slab slab = FullSlabWithHalo(generator, 0, 2);
  CurlField kernel;
  auto diff = Differentiator::Create(geometry, 4);
  ASSERT_TRUE(diff.ok());
  for (int processes : {1, 4}) {
    auto db = MakeTestDb(kN, 2, processes, 1);
    ASSERT_NE(db, nullptr);
    for (const Box3& box :
         {Box3::WholeGrid(kN, kN, kN), Box3(0, 19, 0, 29, kN, 6)}) {
      const std::string where = box.ToString() + " at " +
                                std::to_string(processes) + " processes";
      ThresholdQuery threshold;
      threshold.dataset = "iso";
      threshold.raw_field = "velocity";
      threshold.derived_field = "vorticity";
      threshold.box = box;
      threshold.threshold = 1.0;
      QueryOptions options;
      options.use_cache = false;
      auto points = db->Threshold(threshold, options);
      ASSERT_TRUE(points.ok()) << points.status();
      const auto expected =
          BruteForceThreshold(slab, kernel, *diff, box, threshold.threshold);
      ASSERT_FALSE(expected.empty()) << where;
      EXPECT_EQ(points->points, expected) << where;

      PdfQuery pdf;
      pdf.dataset = "iso";
      pdf.raw_field = "velocity";
      pdf.derived_field = "vorticity";
      pdf.box = box;
      pdf.bin_width = 0.5;
      pdf.num_bins = 9;
      auto counts = db->Pdf(pdf);
      ASSERT_TRUE(counts.ok()) << counts.status();
      EXPECT_EQ(counts->counts, BruteForcePdf(slab, kernel, *diff, box,
                                              pdf.bin_width, pdf.num_bins))
          << where;

      TopKQuery topk;
      topk.dataset = "iso";
      topk.raw_field = "velocity";
      topk.derived_field = "vorticity";
      topk.box = box;
      topk.k = 50;
      auto top = db->TopK(topk);
      ASSERT_TRUE(top.ok()) << top.status();
      EXPECT_EQ(top->points,
                BruteForceTopK(slab, kernel, *diff, box, topk.k))
          << where;
    }
  }
}

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
