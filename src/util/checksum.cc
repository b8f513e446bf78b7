#include "util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace hashjoin {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // CRC-32C, reflected

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][b] advances the CRC of
/// byte b followed by k zero bytes, so eight lookups consume 8 bytes.
/// Built on the first portable-path call, so hosts that take the SSE4.2
/// path never allocate these 8 KiB.
const Tables& SlicingTables() {
  static const Tables* const tables = [] {
    auto* t = new Tables();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
      (*t)[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (size_t i = 0; i < 256; ++i) {
        const uint32_t prev = (*t)[k - 1][i];
        (*t)[k][i] = (prev >> 8) ^ (*t)[0][prev & 0xFFu];
      }
    }
    return t;
  }();
  return *tables;
}

uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

// Both kernels work on the inverted register; Crc32c/Crc32cPortable
// apply the inversions, which is what makes chaining via `seed` work.
uint32_t SlicingBy8(const uint8_t* p, size_t n, uint32_t crc) {
  const Tables& t = SlicingTables();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Sse42(const uint8_t* p, size_t n,
                                                 uint32_t crc) {
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0; ++p, --n) {
    crc = _mm_crc32_u8(crc, *p);
  }
  uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  crc = uint32_t(c);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

using Kernel = uint32_t (*)(const uint8_t*, size_t, uint32_t);

Kernel PickKernel() {
#if defined(__x86_64__)
  // CPUID leaf 1, ECX bit 20. Queried directly rather than through
  // __builtin_cpu_supports, which links libgcc's whole CPU-model probe.
  unsigned eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_SSE4_2) != 0) {
    return &Sse42;
  }
#endif
  return &SlicingBy8;
}

Kernel ActiveKernel() {
  static const Kernel kernel = PickKernel();
  return kernel;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t length, uint32_t seed) {
  return ~ActiveKernel()(static_cast<const uint8_t*>(data), length, ~seed);
}

uint32_t Crc32cPortable(const void* data, size_t length, uint32_t seed) {
  return ~SlicingBy8(static_cast<const uint8_t*>(data), length, ~seed);
}

bool Crc32cUsesHardware() { return ActiveKernel() != &SlicingBy8; }

}  // namespace hashjoin
