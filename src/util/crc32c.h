// CRC32C implementation (Castagnoli polynomial) with the same masking
// convention as LevelDB's log and table formats.

#ifndef LDC_UTIL_CRC32C_H_
#define LDC_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ldc {
namespace crc32c {

// Return the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of some string A. Extend() is often used to maintain the
// crc32c of a stream of data.
//
// Extend() picks one of the two implementations below once, from the CPU
// it runs on. Both return the same value for every input, so checksummed
// files move freely between hosts.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// True when Extend() uses the SSE4.2 crc32 instruction (x86-64 CPUs that
// report SSE4.2 through cpuid); false when it uses ExtendPortable().
bool IsHardwareAccelerated();

// Byte-at-a-time table loop: the fallback, and the reference that tests
// compare ExtendHardware() against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

// SSE4.2 crc32 loop over 8-byte words. Call only when
// IsHardwareAccelerated() is true; on builds for other architectures it
// forwards to ExtendPortable().
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);

// Return the crc32c of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

// Return a masked representation of crc.
//
// Motivation: it is problematic to compute the CRC of a string that
// contains embedded CRCs. Therefore we recommend that CRCs stored
// somewhere (e.g., in files) should be masked before being stored.
inline uint32_t Mask(uint32_t crc) {
  // Rotate right by 15 bits and add a constant.
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

// Return the crc whose masked representation is masked_crc.
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace ldc

#endif  // LDC_UTIL_CRC32C_H_
