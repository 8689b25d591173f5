#include "common/crc32.h"

#include <array>

// PCLMULQDQ is an x86 extension; elsewhere only the table loop exists.
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TURBDB_CRC_X86 1
#endif

namespace turbdb {

namespace {

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

/// Advances the (already inverted) CRC register over `length` bytes.
uint32_t TableUpdate(uint32_t crc, const uint8_t* bytes, size_t length) {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  for (size_t i = 0; i < length; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ bytes[i]) & 0xFFu];
  }
  return crc;
}

#ifdef TURBDB_CRC_X86

#define TURBDB_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/// One fold step: (low half of a) x k_lo ^ (high half of a) x k_hi ^ next.
TURBDB_CLMUL_TARGET inline __m128i Fold(__m128i a, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

inline __m128i Load(const uint8_t* bytes) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes));
}

/// Folds `length` bytes (a multiple of 16, at least 64) into the inverted
/// CRC register `crc`, after Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ" (Intel, 2009). Constants are for
/// the reflected polynomial 0xEDB88320: k1/k2 fold 512 bits, k3/k4 fold
/// 128 bits, k5 folds 96 bits to 64, and P'/mu drive the Barrett
/// reduction to 32 bits.
TURBDB_CLMUL_TARGET uint32_t ClmulUpdate(uint32_t crc, const uint8_t* bytes,
                                         size_t length) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load(bytes + 16);
  __m128i x3 = Load(bytes + 32);
  __m128i x4 = Load(bytes + 48);
  bytes += 64;
  length -= 64;
  for (; length >= 64; bytes += 64, length -= 64) {
    x1 = Fold(x1, k1k2, Load(bytes));
    x2 = Fold(x2, k1k2, Load(bytes + 16));
    x3 = Fold(x3, k1k2, Load(bytes + 32));
    x4 = Fold(x4, k1k2, Load(bytes + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; length >= 16; bytes += 16, length -= 16) {
    x1 = Fold(x1, k3k4, Load(bytes));
  }

  // 128 -> 96 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // TURBDB_CRC_X86

}  // namespace

bool CpuSupports(Crc32Path path) {
  switch (path) {
    case Crc32Path::kTable:
      return true;
    case Crc32Path::kClmul:
#ifdef TURBDB_CRC_X86
      __builtin_cpu_init();  // In case this runs before libgcc's own init.
      return __builtin_cpu_supports("pclmul") &&
             __builtin_cpu_supports("sse4.1");
#else
      return false;
#endif
  }
  return false;
}

Crc32Path BestCrc32Path() {
  static const Crc32Path best = CpuSupports(Crc32Path::kClmul)
                                    ? Crc32Path::kClmul
                                    : Crc32Path::kTable;
  return best;
}

uint32_t Crc32For(Crc32Path path, const void* data, size_t length,
                  uint32_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
#ifdef TURBDB_CRC_X86
  if (path == Crc32Path::kClmul && length >= 64) {
    const size_t folded = length & ~size_t{15};
    crc = ClmulUpdate(crc, bytes, folded);
    bytes += folded;
    length -= folded;
  }
#else
  (void)path;
#endif
  return ~TableUpdate(crc, bytes, length);
}

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  return Crc32For(BestCrc32Path(), data, length, seed);
}

}  // namespace turbdb
