#pragma once

#include <cstddef>
#include <cstdint>

namespace turbdb {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Used to checksum atom
/// payloads in the file-backed store so that on-disk corruption is
/// detected at read time rather than silently propagating into derived
/// fields. Runs on BestCrc32Path().
uint32_t Crc32(const void* data, size_t length, uint32_t seed = 0);

/// The two implementations of Crc32(), which return the same value for
/// every input: a byte-at-a-time table loop, and 64-byte folding with
/// carry-less multiplies (PCLMULQDQ) and a Barrett reduction, whose tails
/// under 16 bytes (and inputs under 64 bytes) run the table loop.
enum class Crc32Path { kTable, kClmul };

/// True if this CPU can run `path`.
bool CpuSupports(Crc32Path path);

/// The fastest Crc32Path this CPU supports, probed once per process.
Crc32Path BestCrc32Path();

/// Crc32() on a given path, which this CPU must support.
uint32_t Crc32For(Crc32Path path, const void* data, size_t length,
                  uint32_t seed = 0);

}  // namespace turbdb
