#ifndef HASHJOIN_UTIL_ALIGNED_H_
#define HASHJOIN_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <type_traits>

namespace hashjoin {

/// Cache line size assumed throughout (matches the paper's simulated
/// machine, Table 2, and common x86 hardware).
inline constexpr size_t kCacheLineSize = 64;

/// Allocates `bytes` of storage aligned to `alignment` (power of two,
/// >= sizeof(void*)). Freed with AlignedFree.
void* AlignedAlloc(size_t bytes, size_t alignment = kCacheLineSize);
void AlignedFree(void* ptr);

/// unique_ptr deleter for AlignedAlloc'd buffers.
struct AlignedDeleter {
  void operator()(void* p) const { AlignedFree(p); }
};

template <typename T>
using AlignedBuffer = std::unique_ptr<T[], AlignedDeleter>;

/// Allocates an aligned, default-constructible array of n T's.
/// T must be trivially destructible (the buffer is freed, not destroyed).
template <typename T>
AlignedBuffer<T> MakeAlignedBuffer(size_t n,
                                   size_t alignment = kCacheLineSize) {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedBuffer requires trivially destructible T");
  void* p = AlignedAlloc(n * sizeof(T), alignment);
  return AlignedBuffer<T>(new (p) T[n]);
}

/// Allocates an aligned array of n T's without constructing them. T must
/// be trivially copyable and destructible, hence an implicit-lifetime
/// type whose objects the allocation creates; the caller writes every
/// element before reading it.
template <typename T>
AlignedBuffer<T> MakeUninitializedAlignedBuffer(
    size_t n, size_t alignment = kCacheLineSize) {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "uninitialized AlignedBuffer requires an implicit-lifetime T");
  return AlignedBuffer<T>(
      static_cast<T*>(AlignedAlloc(n * sizeof(T), alignment)));
}

}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_ALIGNED_H_
