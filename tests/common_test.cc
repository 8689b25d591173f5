#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iostream>
#include <vector>

#include "common/crc32.h"
#include "common/profile.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace turbdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status status = Status::ThresholdTooLow("too many points");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsThresholdTooLow());
  EXPECT_EQ(status.ToString(), "ThresholdTooLow: too many points");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 12; ++code) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

Status FailIfNegative(int value) {
  if (value < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chained(int value) {
  TURBDB_RETURN_NOT_OK(FailIfNegative(value));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_EQ(Chained(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int value) {
  if (value <= 0) return Status::OutOfRange("not positive");
  return value * 2;
}

Result<int> UseAssignOrReturn(int value) {
  TURBDB_ASSIGN_OR_RETURN(int doubled, ParsePositive(value));
  return doubled + 1;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> result = ParsePositive(21);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());

  Result<int> error = ParsePositive(-1);
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(error.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(UseAssignOrReturn(5).value(), 11);
  EXPECT_FALSE(UseAssignOrReturn(0).ok());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(9);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 9);
}

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard IEEE CRC-32 test vector.
  const char* data = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(1024);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  const uint32_t crc = Crc32(data.data(), data.size());
  data[512] ^= 0x01;
  EXPECT_NE(Crc32(data.data(), data.size()), crc);
}

/// Bit-at-a-time CRC-32, the definition both Crc32Paths must match.
uint32_t BitwiseCrc32(const uint8_t* bytes, size_t length, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < length; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

/// Every path this CPU runs (a CPU without PCLMUL checks only the table).
std::vector<Crc32Path> SupportedCrc32Paths() {
  std::vector<Crc32Path> paths;
  for (Crc32Path path : {Crc32Path::kTable, Crc32Path::kClmul}) {
    if (CpuSupports(path)) paths.push_back(path);
  }
  if (paths.size() < 2) {
    std::cout << "[   NOTE   ] no PCLMUL on this CPU: table path only\n";
  }
  return paths;
}

/// Both paths equal the bitwise definition at every length up to 1100
/// (every residue of the 64- and 16-byte folds and the table tail), at
/// every start alignment and for several seeds; chaining through the seed
/// equals one call over the concatenation.
TEST(Crc32Test, EveryPathMatchesBitwiseReference) {
  const std::vector<Crc32Path> paths = SupportedCrc32Paths();
  ASSERT_EQ(BestCrc32Path(), paths.back());
  constexpr size_t kMaxLength = 1100;
  for (uint64_t rng_seed : {1u, 2u, 3u}) {
    SplitMix64 rng(rng_seed);
    std::vector<uint8_t> buffer(kMaxLength + 16);
    for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.Next());
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t length = 0; length <= kMaxLength; ++length) {
        const uint8_t* bytes = buffer.data() + offset;
        const uint32_t expected = BitwiseCrc32(bytes, length, seed);
        for (Crc32Path path : paths) {
          ASSERT_EQ(Crc32For(path, bytes, length, seed), expected)
              << "path " << static_cast<int>(path) << " seed " << rng_seed
              << " offset " << offset << " length " << length;
        }
      }
    }
    for (Crc32Path path : paths) {
      const uint32_t whole = Crc32For(path, buffer.data(), kMaxLength);
      for (size_t split = 0; split <= kMaxLength; ++split) {
        const uint32_t head = Crc32For(path, buffer.data(), split);
        ASSERT_EQ(Crc32For(path, buffer.data() + split, kMaxLength - split,
                           head),
                  whole)
            << "path " << static_cast<int>(path) << " split " << split;
      }
    }
  }
}

TEST(RngTest, DeterministicBySeed) {
  SplitMix64 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    EXPECT_NE(va, c.Next());
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, MixSeedSeparatesStreams) {
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 1));
  EXPECT_NE(MixSeed(1, 2), MixSeed(1, 3));
  EXPECT_EQ(MixSeed(5, 9), MixSeed(5, 9));
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter, i] {
      counter.fetch_add(1);
      return i;
    }));
  }
  int sum = 0;
  for (auto& future : futures) sum += future.get();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(1);
  auto future = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([] { return 3; }).get(), 3);
}

TEST(TimeBreakdownTest, TotalSumsCategories) {
  TimeBreakdown time;
  time.cache_lookup_s = 1;
  time.io_s = 2;
  time.compute_s = 3;
  time.mediator_db_comm_s = 4;
  time.mediator_user_comm_s = 5;
  EXPECT_DOUBLE_EQ(time.Total(), 15.0);

  TimeBreakdown other;
  other.io_s = 10;
  time += other;
  EXPECT_DOUBLE_EQ(time.io_s, 12.0);

  const TimeBreakdown max = time.MaxWith(other);
  EXPECT_DOUBLE_EQ(max.io_s, 12.0);
  EXPECT_DOUBLE_EQ(max.compute_s, 3.0);
  EXPECT_FALSE(time.ToString().empty());
}

TEST(IoCountersTest, Accumulate) {
  IoCounters a;
  a.bytes_read_local = 10;
  a.points_evaluated = 5;
  IoCounters b;
  b.bytes_read_local = 7;
  b.atoms_read_remote = 2;
  a += b;
  EXPECT_EQ(a.bytes_read_local, 17u);
  EXPECT_EQ(a.atoms_read_remote, 2u);
  EXPECT_EQ(a.points_evaluated, 5u);
}

}  // namespace
}  // namespace turbdb
