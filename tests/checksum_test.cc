// CRC-32C (util/checksum.h): the RFC 3720 known-answer vectors, the
// seed-chaining contract, and parity between the SSE4.2 path and the
// portable slicing-by-8 path. Registered under the `faults` ctest label
// with the rest of the page-integrity machinery, so the sanitizer
// presets run both paths.

#include <cstdint>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/checksum.h"
#include "util/random.h"

namespace hashjoin {
namespace {

using CrcFn = uint32_t (*)(const void*, size_t, uint32_t);

// Every assertion on values runs against both entry points: Crc32c (the
// dispatched path) and Crc32cPortable.
const std::vector<std::pair<const char*, CrcFn>>& Paths() {
  static const std::vector<std::pair<const char*, CrcFn>> paths = {
      {"dispatched", &Crc32c}, {"portable", &Crc32cPortable}};
  return paths;
}

TEST(ChecksumTest, KnownVectors) {
  // RFC 3720 §B.4 CRC examples, plus the common "123456789" check value.
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  for (const auto& [name, crc] : Paths()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending.data(), ascending.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u);
    EXPECT_EQ(crc("", 0, 0), 0u);
    EXPECT_EQ(crc("", 0, 0xDEADBEEFu), 0xDEADBEEFu);
  }
}

TEST(ChecksumTest, ChainingMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t n = 43;
  for (const auto& [name, crc] : Paths()) {
    SCOPED_TRACE(name);
    uint32_t whole = crc(data, n, 0);
    for (size_t split : {size_t(1), size_t(7), size_t(20), n - 1}) {
      uint32_t part = crc(data, split, 0);
      EXPECT_EQ(crc(data + split, n - split, part), whole) << split;
    }
  }
}

TEST(ChecksumTest, SensitiveToSingleBitFlips) {
  std::vector<uint8_t> buf(4096, 0xA5);
  uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t bit : {size_t(0), size_t(9), size_t(4095 * 8 + 7)}) {
    buf[bit / 8] ^= uint8_t(1u << (bit % 8));
    EXPECT_NE(Crc32c(buf.data(), buf.size()), base) << bit;
    buf[bit / 8] ^= uint8_t(1u << (bit % 8));
  }
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), base);
}

TEST(ChecksumTest, HardwareMatchesPortable) {
  // Every length up to one page plus a word, from every start offset
  // modulo 8 (the SSE4.2 path aligns to 8 bytes before its word loop),
  // each call seeded with the previous result so chaining is covered.
  constexpr size_t kMaxLength = 8200;
  constexpr size_t kOffsets = 8;
  std::vector<uint8_t> buf(kMaxLength + kOffsets);
  Rng rng(0xC5C32C);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  uint32_t seed = 0;
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t len = 0; len <= kMaxLength; ++len) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t want = Crc32cPortable(p, len, seed);
      const uint32_t got = Crc32c(p, len, seed);
      ASSERT_EQ(got, want) << "offset " << offset << " length " << len;
      seed = got;
    }
  }
}

#if defined(__x86_64__)
TEST(ChecksumTest, DispatchesToHardwareWhenAvailable) {
  EXPECT_EQ(Crc32cUsesHardware(), bool(__builtin_cpu_supports("sse4.2")));
}
#endif

}  // namespace
}  // namespace hashjoin
