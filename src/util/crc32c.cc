#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace ldc {
namespace crc32c {

namespace {

// CRC32C (Castagnoli) polynomial, reflected form.
constexpr uint32_t kPolynomial = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

bool CpuHasCrc32Instruction() {
#if defined(__x86_64__)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & bit_SSE4_2) != 0;
#else
  return false;
#endif
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)
// Compiled for SSE4.2 without enabling it for the rest of the binary, so the
// library still runs on CPUs that lack the instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data,
                                                          size_t n) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    // Record and block buffers have no alignment guarantee.
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; p++, n--) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return crc32 ^ 0xffffffffu;
}
#else
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
  return ExtendPortable(init_crc, data, n);
}
#endif

bool IsHardwareAccelerated() {
  static const bool supported = CpuHasCrc32Instruction();
  return supported;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return IsHardwareAccelerated() ? ExtendHardware(init_crc, data, n)
                                 : ExtendPortable(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace ldc
