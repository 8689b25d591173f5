#include "cache/semantic_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace turbdb {
namespace {

std::vector<ThresholdPoint> MakePoints(int count, float base_norm,
                                       uint32_t offset = 0) {
  std::vector<ThresholdPoint> points;
  points.reserve(count);
  for (int i = 0; i < count; ++i) {
    points.push_back(MakeThresholdPoint(offset + i, offset + i, offset + i,
                                        base_norm + i));
  }
  return points;
}

class SemanticCacheTest : public ::testing::Test {
 protected:
  SemanticCacheTest()
      : cache_(&txn_manager_, DeviceSpec::Ssd(), 1 << 20) {}

  TransactionManager txn_manager_;
  SemanticCache cache_;
  const Box3 whole_ = Box3::WholeGrid(64, 64, 64);
};

TEST_F(SemanticCacheTest, MissOnEmptyCache) {
  auto lookup = cache_.Lookup("mhd", "vorticity", 0, 4, whole_, 10.0);
  ASSERT_TRUE(lookup.ok());
  EXPECT_FALSE(lookup->hit);
  EXPECT_TRUE(lookup->points.empty());
}

TEST_F(SemanticCacheTest, HitAfterInsertFiltersByThreshold) {
  ASSERT_TRUE(
      cache_.Insert("mhd", "vorticity", 0, 4, whole_, 10.0,
                    MakePoints(20, 10.0f))
          .ok());
  auto lookup = cache_.Lookup("mhd", "vorticity", 0, 4, whole_, 15.0);
  ASSERT_TRUE(lookup.ok());
  EXPECT_TRUE(lookup->hit);
  // Points with norm >= 15: stored norms are 10..29 -> 15 qualify.
  EXPECT_EQ(lookup->points.size(), 15u);
  for (const ThresholdPoint& point : lookup->points) {
    EXPECT_GE(point.norm, 15.0f);
  }
}

TEST_F(SemanticCacheTest, LowerThresholdMisses) {
  ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, whole_, 10.0,
                            MakePoints(5, 10.0f))
                  .ok());
  auto lookup = cache_.Lookup("mhd", "vorticity", 0, 4, whole_, 5.0);
  ASSERT_TRUE(lookup.ok());
  EXPECT_FALSE(lookup->hit);
}

TEST_F(SemanticCacheTest, RegionContainmentGovernsHits) {
  const Box3 half(0, 0, 0, 32, 64, 64);
  ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, half, 10.0,
                            MakePoints(10, 12.0f))
                  .ok());
  // A sub-box of the cached region hits...
  auto sub = cache_.Lookup("mhd", "vorticity", 0, 4,
                           Box3(4, 4, 4, 20, 20, 20), 10.0);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->hit);
  // ...a box poking outside it misses.
  auto outside = cache_.Lookup("mhd", "vorticity", 0, 4,
                               Box3(4, 4, 4, 40, 20, 20), 10.0);
  ASSERT_TRUE(outside.ok());
  EXPECT_FALSE(outside->hit);
}

TEST_F(SemanticCacheTest, HitFiltersPointsToQueryBox) {
  ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, whole_, 1.0,
                            MakePoints(30, 5.0f))
                  .ok());
  // Points are at (i,i,i) for i in [0,30); the box selects i in [5,10).
  auto lookup = cache_.Lookup("mhd", "vorticity", 0, 4,
                              Box3(5, 0, 0, 10, 64, 64), 1.0);
  ASSERT_TRUE(lookup.ok());
  ASSERT_TRUE(lookup->hit);
  EXPECT_EQ(lookup->points.size(), 5u);
}

TEST_F(SemanticCacheTest, KeysSeparateFieldsTimestepsAndOrders) {
  ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, whole_, 1.0,
                            MakePoints(3, 2.0f))
                  .ok());
  EXPECT_FALSE(
      cache_.Lookup("mhd", "current", 0, 4, whole_, 1.0)->hit);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "vorticity", 1, 4, whole_, 1.0)->hit);
  EXPECT_FALSE(
      cache_.Lookup("mhd", "vorticity", 0, 8, whole_, 1.0)->hit);
  EXPECT_FALSE(
      cache_.Lookup("iso", "vorticity", 0, 4, whole_, 1.0)->hit);
  EXPECT_TRUE(
      cache_.Lookup("mhd", "vorticity", 0, 4, whole_, 1.0)->hit);
}

TEST_F(SemanticCacheTest, SameRegionInsertReplacesEntry) {
  ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, whole_, 10.0,
                            MakePoints(5, 11.0f))
                  .ok());
  ASSERT_EQ(cache_.entry_count(), 1u);
  // Re-evaluated with a lower threshold: the entry is superseded.
  ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, whole_, 5.0,
                            MakePoints(12, 6.0f))
                  .ok());
  EXPECT_EQ(cache_.entry_count(), 1u);
  auto lookup = cache_.Lookup("mhd", "vorticity", 0, 4, whole_, 5.0);
  ASSERT_TRUE(lookup.ok());
  EXPECT_TRUE(lookup->hit);
  EXPECT_EQ(lookup->points.size(), 12u);
}

TEST_F(SemanticCacheTest, DisabledCacheDoesNothing) {
  SemanticCache disabled(&txn_manager_, DeviceSpec::Ssd(), 0);
  EXPECT_FALSE(disabled.enabled());
  ASSERT_TRUE(disabled.Insert("d", "f", 0, 4, whole_, 1.0,
                              MakePoints(5, 2.0f))
                  .ok());
  EXPECT_EQ(disabled.entry_count(), 0u);
  EXPECT_FALSE(disabled.Lookup("d", "f", 0, 4, whole_, 1.0)->hit);
}

TEST_F(SemanticCacheTest, OversizedEntryIsNotCached) {
  SemanticCache tiny(&txn_manager_, DeviceSpec::Ssd(), 1024);
  // 100 points * 40 B > 1024 B capacity.
  ASSERT_TRUE(
      tiny.Insert("d", "f", 0, 4, whole_, 1.0, MakePoints(100, 2.0f)).ok());
  EXPECT_EQ(tiny.entry_count(), 0u);
}

TEST_F(SemanticCacheTest, LruEvictionDropsColdestEntry) {
  // Capacity for roughly two 50-point entries.
  SemanticCache small(&txn_manager_, DeviceSpec::Ssd(),
                      2 * (50 * SemanticCache::kBytesPerPoint +
                           SemanticCache::kBytesPerInfoRecord) +
                          64);
  const Box3 box_a(0, 0, 0, 8, 8, 8);
  const Box3 box_b(8, 0, 0, 16, 8, 8);
  const Box3 box_c(16, 0, 0, 24, 8, 8);
  ASSERT_TRUE(small.Insert("d", "f", 0, 4, box_a, 1.0, MakePoints(50, 2.0f))
                  .ok());
  ASSERT_TRUE(small.Insert("d", "f", 1, 4, box_b, 1.0, MakePoints(50, 2.0f))
                  .ok());
  EXPECT_EQ(small.entry_count(), 2u);
  // Touch entry A so B becomes the LRU victim.
  EXPECT_TRUE(small.Lookup("d", "f", 0, 4, box_a, 1.0)->hit);
  ASSERT_TRUE(small.Insert("d", "f", 2, 4, box_c, 1.0, MakePoints(50, 2.0f))
                  .ok());
  EXPECT_EQ(small.entry_count(), 2u);
  EXPECT_TRUE(small.Lookup("d", "f", 0, 4, box_a, 1.0)->hit);   // Kept.
  EXPECT_FALSE(small.Lookup("d", "f", 1, 4, box_b, 1.0)->hit);  // Evicted.
  EXPECT_TRUE(small.Lookup("d", "f", 2, 4, box_c, 1.0)->hit);   // New.
}

TEST_F(SemanticCacheTest, EvictByTimestepAndWildcard) {
  for (int32_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(cache_.Insert("mhd", "vorticity", t, 4, whole_, 1.0,
                              MakePoints(4, 2.0f))
                    .ok());
  }
  ASSERT_TRUE(cache_.Insert("mhd", "current", 0, 4, whole_, 1.0,
                            MakePoints(4, 2.0f))
                  .ok());
  ASSERT_EQ(cache_.entry_count(), 4u);

  ASSERT_TRUE(cache_.Evict("mhd", "vorticity", 1).ok());
  EXPECT_EQ(cache_.entry_count(), 3u);
  EXPECT_FALSE(cache_.Lookup("mhd", "vorticity", 1, 4, whole_, 1.0)->hit);
  EXPECT_TRUE(cache_.Lookup("mhd", "vorticity", 0, 4, whole_, 1.0)->hit);

  ASSERT_TRUE(cache_.Evict("mhd", "vorticity", -1).ok());
  EXPECT_EQ(cache_.entry_count(), 1u);
  EXPECT_TRUE(cache_.Lookup("mhd", "current", 0, 4, whole_, 1.0)->hit);

  ASSERT_TRUE(cache_.Evict("mhd", "", -1).ok());
  EXPECT_EQ(cache_.entry_count(), 0u);
  EXPECT_EQ(cache_.used_bytes(), 0u);
}

TEST_F(SemanticCacheTest, LookupChargesSsdCosts) {
  ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, whole_, 1.0,
                            MakePoints(100, 2.0f))
                  .ok());
  auto hit = cache_.Lookup("mhd", "vorticity", 0, 4, whole_, 1.0);
  ASSERT_TRUE(hit.ok());
  EXPECT_GT(hit->lookup_cost_s, 0.0);
  EXPECT_EQ(hit->io.cache_records_scanned, 101u);  // 1 info + 100 data.
  EXPECT_GT(hit->io.cache_bytes_scanned,
            100 * SemanticCache::kBytesPerPoint - 1);
}

TEST_F(SemanticCacheTest, InsertReportsCost) {
  double cost = 0.0;
  ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, whole_, 1.0,
                            MakePoints(10, 2.0f), &cost)
                  .ok());
  EXPECT_GT(cost, 0.0);
}

TEST_F(SemanticCacheTest, GarbageCollectionReclaimsSupersededEntries) {
  // Repeatedly replace the same region: every replacement supersedes the
  // prior entry's versions, which GC must reclaim once no snapshot can
  // see them.
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(cache_.Insert("mhd", "vorticity", 0, 4, whole_,
                              10.0 - round, MakePoints(8, 11.0f))
                    .ok());
  }
  EXPECT_EQ(cache_.entry_count(), 1u);
  // 45 = 9 superseded entries x (2 info versions + 2 versions of their
  // one data row: put, delete) + 9 older versions of the shared slot key.
  const size_t reclaimed = cache_.GarbageCollect();
  EXPECT_EQ(reclaimed, 45u);
  // The surviving entry still answers correctly.
  auto lookup = cache_.Lookup("mhd", "vorticity", 0, 4, whole_, 1.0);
  ASSERT_TRUE(lookup.ok());
  EXPECT_TRUE(lookup->hit);
  EXPECT_EQ(lookup->points.size(), 8u);
}

TEST_F(SemanticCacheTest, ConcurrentInsertsAndLookupsStayConsistent) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int32_t timestep = (t * kRounds + round) % 7;
        ASSERT_TRUE(cache_
                        .Insert("mhd", "vorticity", timestep, 4, whole_, 1.0,
                                MakePoints(10, 2.0f))
                        .ok());
        auto lookup =
            cache_.Lookup("mhd", "vorticity", timestep, 4, whole_, 2.0);
        ASSERT_TRUE(lookup.ok());
        if (lookup->hit) {
          // An entry is never visible without all of its points
          // (snapshot isolation): norms 2..11 are all >= 2.
          EXPECT_EQ(lookup->points.size(), 10u);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // At most one entry per (timestep): replacement collapsed duplicates.
  EXPECT_LE(cache_.entry_count(), 7u);
}

}  // namespace
}  // namespace turbdb
