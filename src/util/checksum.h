#ifndef HASHJOIN_UTIL_CHECKSUM_H_
#define HASHJOIN_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace hashjoin {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78, the iSCSI /
/// RFC 3720 checksum) over `length` bytes.
///
/// The implementation is picked once, on first call: the SSE4.2 `crc32`
/// instruction (8 bytes per step) when the CPU has it, otherwise a
/// portable slicing-by-8 table loop. Both compute the same function.
///
/// The `seed` parameter chains calls: pass a previous result to extend
/// the checksum over a discontiguous byte range.
/// Crc32c(a+b) == Crc32c(b, Crc32c(a)); the empty range returns `seed`.
///
/// Used as the page-integrity check of the fault-tolerant I/O path:
/// the buffer manager stamps every page on write and verifies on read,
/// turning torn pages and bit rot into detected (and usually retried)
/// errors instead of silent corruption.
uint32_t Crc32c(const void* data, size_t length, uint32_t seed = 0);

/// The slicing-by-8 path on its own, whatever the CPU supports. Exposed
/// so tests can check it against the dispatched path; production code
/// calls Crc32c.
uint32_t Crc32cPortable(const void* data, size_t length, uint32_t seed = 0);

/// Whether Crc32c dispatches to the SSE4.2 instruction on this CPU.
bool Crc32cUsesHardware();

}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_CHECKSUM_H_
