// Micro-benchmarks (google-benchmark) for the hot paths underneath the
// threshold-query engine: Morton coding, box-to-range decomposition,
// derived-field kernels, result serialization, cache inserts and lookups,
// CRC-32 and friends-of-friends clustering.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "analysis/fof.h"
#include "array/morton.h"
#include "array/slab.h"
#include "cache/semantic_cache.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
#include "datagen/turbulence.h"
#include "fields/derived_field.h"
#include "fields/differentiator.h"
#include "wire/serializer.h"

namespace turbdb {
namespace {

void BM_MortonEncode(benchmark::State& state) {
  uint32_t x = 123, y = 456, z = 789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MortonEncode3(x, y, z));
    ++x;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_MortonDecode(benchmark::State& state) {
  uint64_t code = 0x123456789ABCDEFULL & ((1ULL << 63) - 1);
  uint32_t x, y, z;
  for (auto _ : state) {
    MortonDecode3(code, &x, &y, &z);
    benchmark::DoNotOptimize(x + y + z);
    ++code;
  }
}
BENCHMARK(BM_MortonDecode);

void BM_MortonRangesForBox(benchmark::State& state) {
  const uint32_t side = static_cast<uint32_t>(state.range(0));
  const uint32_t lo[3] = {3, 5, 7};
  const uint32_t hi[3] = {3 + side, 5 + side, 7 + side};
  for (auto _ : state) {
    benchmark::DoNotOptimize(MortonRangesForBox(lo, hi));
  }
}
BENCHMARK(BM_MortonRangesForBox)->Arg(8)->Arg(32)->Arg(128);

/// Shared fixture state: a 48^3 slab of synthetic velocity with halo.
struct KernelFixture {
  KernelFixture() : geometry(GridGeometry::Isotropic(48)) {
    TurbulenceSpec spec;
    spec.num_modes = 24;
    spec.num_tubes = 8;
    SyntheticField field(spec, geometry, 3);
    const Box3 region = geometry.Bounds().Grown(4);
    slab = Slab(region, 3);
    double value[3];
    for (int64_t z = region.lo[2]; z < region.hi[2]; ++z) {
      for (int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
        for (int64_t x = region.lo[0]; x < region.hi[0]; ++x) {
          field.EvaluateAtNode(0, geometry.WrapIndex(0, x),
                               geometry.WrapIndex(1, y),
                               geometry.WrapIndex(2, z), value);
          for (int c = 0; c < 3; ++c) {
            slab.At(x, y, z, c) = static_cast<float>(value[c]);
          }
        }
      }
    }
  }
  GridGeometry geometry;
  Slab slab;
};

KernelFixture& Fixture() {
  static KernelFixture fixture;
  return fixture;
}

template <typename Kernel>
void RunKernelBench(benchmark::State& state, int order) {
  KernelFixture& fixture = Fixture();
  auto diff = Differentiator::Create(fixture.geometry, order);
  Kernel kernel;
  int64_t i = 0;
  const int64_t n = fixture.geometry.nx();
  for (auto _ : state) {
    const int64_t x = i % n;
    const int64_t y = (i / n) % n;
    const int64_t z = (i / n / n) % n;
    benchmark::DoNotOptimize(kernel.NormAt(fixture.slab, *diff, x, y, z));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_VorticityNorm(benchmark::State& state) {
  RunKernelBench<CurlField>(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_VorticityNorm)->Arg(2)->Arg(4)->Arg(8);

void BM_QCriterionNorm(benchmark::State& state) {
  RunKernelBench<QCriterionField>(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_QCriterionNorm)->Arg(4);

/// NormLine over whole 48-point x-rows of the fixture, cycling through
/// the rows; items are points, so the rate compares with RunKernelBench.
template <typename Kernel>
void RunKernelLineBench(benchmark::State& state, int order) {
  KernelFixture& fixture = Fixture();
  auto diff = Differentiator::Create(fixture.geometry, order);
  Kernel kernel;
  const int64_t n = fixture.geometry.nx();
  std::vector<double> norms(static_cast<size_t>(n));
  int64_t row = 0;
  for (auto _ : state) {
    kernel.NormLine(fixture.slab, *diff, 0, n, row % n, (row / n) % n,
                    norms.data());
    benchmark::DoNotOptimize(norms.data());
    benchmark::ClobberMemory();
    ++row;
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_VorticityNormLine(benchmark::State& state) {
  RunKernelLineBench<CurlField>(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_VorticityNormLine)->Arg(2)->Arg(4)->Arg(8);

void BM_QCriterionNormLine(benchmark::State& state) {
  RunKernelLineBench<QCriterionField>(state,
                                      static_cast<int>(state.range(0)));
}
BENCHMARK(BM_QCriterionNormLine)->Arg(4);

/// The slab one node chunk gathers on a whole-step 128^3 query over
/// 4 nodes x 4 processes: 8x8x4 atoms plus a one-atom halo ring, i.e.
/// 80x80x48 points, filled from the wrapped grid.
struct ChunkFixture {
  ChunkFixture()
      : geometry(GridGeometry::Isotropic(128)),
        slab(Box3(-8, -8, -8, 72, 72, 40), 3) {
    TurbulenceSpec spec;
    spec.num_modes = 24;
    spec.num_tubes = 8;
    SyntheticField field(spec, geometry, 3);
    const Box3& region = slab.region();
    double value[3];
    for (int64_t z = region.lo[2]; z < region.hi[2]; ++z) {
      for (int64_t y = region.lo[1]; y < region.hi[1]; ++y) {
        for (int64_t x = region.lo[0]; x < region.hi[0]; ++x) {
          field.EvaluateAtNode(0, geometry.WrapIndex(0, x),
                               geometry.WrapIndex(1, y),
                               geometry.WrapIndex(2, z), value);
          for (int c = 0; c < 3; ++c) {
            slab.At(x, y, z, c) = static_cast<float>(value[c]);
          }
        }
      }
    }
  }
  GridGeometry geometry;
  Slab slab;
};

/// NormLine (FD order 4) sweeping the chunk's 64x64x32 interior in lines
/// of state.range(0) points: 8 is one atom's row, 64 the chunk's merged
/// x-run the node evaluates. Items are points.
template <typename Kernel>
void RunChunkLineBench(benchmark::State& state) {
  static ChunkFixture fixture;
  auto diff = Differentiator::Create(fixture.geometry, 4);
  Kernel kernel;
  const int64_t line = state.range(0);
  const int64_t lines_per_row = 64 / line;
  std::vector<double> norms(static_cast<size_t>(line));
  int64_t step = 0;
  for (auto _ : state) {
    const int64_t row = step / lines_per_row;
    kernel.NormLine(fixture.slab, *diff, (step % lines_per_row) * line, line,
                    row % 64, (row / 64) % 32, norms.data());
    benchmark::DoNotOptimize(norms.data());
    benchmark::ClobberMemory();
    ++step;
  }
  state.SetItemsProcessed(state.iterations() * line);
}

void BM_VorticityNormLineChunk(benchmark::State& state) {
  RunChunkLineBench<CurlField>(state);
}
BENCHMARK(BM_VorticityNormLineChunk)->Arg(8)->Arg(64);

void BM_QCriterionNormLineChunk(benchmark::State& state) {
  RunChunkLineBench<QCriterionField>(state);
}
BENCHMARK(BM_QCriterionNormLineChunk)->Arg(8)->Arg(64);

void BM_MagnitudeNorm(benchmark::State& state) {
  RunKernelBench<MagnitudeField>(state, 4);
}
BENCHMARK(BM_MagnitudeNorm);

std::vector<ThresholdPoint> RandomPoints(size_t count) {
  SplitMix64 rng(99);
  std::vector<ThresholdPoint> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.push_back(MakeThresholdPoint(
        static_cast<uint32_t>(rng.NextBounded(1024)),
        static_cast<uint32_t>(rng.NextBounded(1024)),
        static_cast<uint32_t>(rng.NextBounded(1024)),
        static_cast<float>(rng.NextDouble(1.0, 300.0))));
  }
  std::sort(points.begin(), points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  return points;
}

void BM_EncodePointsBinary(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodePointsBinary(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodePointsBinary)->Arg(1000)->Arg(100000);

void BM_EncodePointsXml(benchmark::State& state) {
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodePointsXml(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodePointsXml)->Arg(1000)->Arg(100000);

void BM_SemanticCacheInsert(benchmark::State& state) {
  TransactionManager txn_manager;
  SemanticCache cache(&txn_manager, DeviceSpec::Ssd(), 1ULL << 30);
  const Box3 region = Box3::WholeGrid(256, 256, 256);
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    // Each insert replaces the previous entry for the same region.
    TURBDB_CHECK_OK(cache.Insert("d", "f", 0, 4, region, 10.0, points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SemanticCacheInsert)->Arg(20000);

void BM_SemanticCacheLookup(benchmark::State& state) {
  TransactionManager txn_manager;
  SemanticCache cache(&txn_manager, DeviceSpec::Ssd(), 1ULL << 30);
  const Box3 region = Box3::WholeGrid(256, 256, 256);
  const auto points = RandomPoints(static_cast<size_t>(state.range(0)));
  TURBDB_CHECK_OK(
      cache.Insert("d", "f", 0, 4, region, 10.0, points));
  for (auto _ : state) {
    auto lookup = cache.Lookup("d", "f", 0, 4, region, 20.0);
    benchmark::DoNotOptimize(lookup);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SemanticCacheLookup)->Arg(1000)->Arg(20000)->Arg(100000);

/// Args: Crc32Path (0 table, 1 PCLMUL folding), bytes (64 = a short
/// frame, 6144 = one 8^3 atom of 3 floats).
void BM_Crc32(benchmark::State& state) {
  const auto path = static_cast<Crc32Path>(state.range(0));
  if (!CpuSupports(path)) {
    state.SkipWithError("path not supported on this CPU");
    return;
  }
  SplitMix64 rng(7);
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(1)));
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32For(path, bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{0, 1}, {64, 6144}});

void BM_FriendsOfFriends(benchmark::State& state) {
  const auto raw = RandomPoints(static_cast<size_t>(state.range(0)));
  const auto points = ToFofPoints(raw, 0);
  FofParams params;
  params.linking_length = 8.0;
  params.periodic_extent = {1024.0, 1024.0, 1024.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(FriendsOfFriends(points, params));
  }
}
BENCHMARK(BM_FriendsOfFriends)->Arg(1000)->Arg(30000);

}  // namespace
}  // namespace turbdb

BENCHMARK_MAIN();
