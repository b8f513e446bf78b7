#ifndef HASHJOIN_SIMCACHE_CACHE_H_
#define HASHJOIN_SIMCACHE_CACHE_H_

#include <cstdint>
#include <vector>

#include "util/aligned.h"

namespace hashjoin {
namespace sim {

/// A set-associative cache model with true-LRU replacement. Tag-only:
/// it tracks which line addresses are resident, not their contents (the
/// kernels operate on real memory; the simulator only accounts time).
///
/// Layout: each set's tags are contiguous and cache-line aligned (an
/// 8-way set is one 64-byte line), invalid ways hold kInvalidTag, and
/// the LRU stamps and LineInfo live in parallel arrays; a set is indexed
/// with a shift and a mask.
class SetAssocCache {
 public:
  /// Metadata carried per resident line; used to classify conflict
  /// evictions of prefetched-but-not-yet-referenced lines.
  struct LineInfo {
    uint64_t ready_time = 0;   // cycle when a prefetched line arrives
    bool prefetched = false;   // brought in by a prefetch
    bool referenced = false;   // demanded at least once since fill
  };

  /// Builds a cache of `size` bytes, `assoc` ways, `line_size`-byte lines.
  /// size must be divisible by assoc * line_size; line_size and the set
  /// count must be powers of two.
  SetAssocCache(uint32_t size, uint32_t assoc, uint32_t line_size);

  /// Looks up the line containing `line_addr` (already line-aligned).
  /// Returns the line's metadata and promotes it to MRU, or nullptr on
  /// miss. Does not fill.
  LineInfo* Lookup(uint64_t line_addr) {
    const size_t base = SetBase(line_addr);
    const uint64_t* tags = &tags_[base];
    for (uint32_t w = 0; w < assoc_; ++w) {
      if (tags[w] == line_addr) {
        lru_[base + w] = ++lru_clock_;
        ++hits_;
        return &info_[base + w];
      }
    }
    ++misses_;
    return nullptr;
  }

  /// Inserts a line (evicting LRU if needed) and returns its metadata.
  /// If an unreferenced prefetched line is evicted, bumps
  /// evicted_before_use(). A resident line keeps its way and gets fresh
  /// metadata.
  LineInfo* Insert(uint64_t line_addr);

  /// Insert() for a line known not to be resident (a Lookup just
  /// missed): skips the resident check.
  LineInfo* InsertMissing(uint64_t line_addr);

  /// Invalidates every line (the Figure-18 interference model).
  void Flush();

  /// Evicts one specific line if present (used by tests).
  void Invalidate(uint64_t line_addr);

  /// Shifts every resident line's ready_time down by `base` (clamped at
  /// zero) — used when the simulator re-bases its clock.
  void RebaseTime(uint64_t base);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evicted_before_use() const { return evicted_before_use_; }
  uint32_t num_sets() const { return set_mask_ + 1; }
  uint32_t assoc() const { return assoc_; }

  void ResetStats();

 private:
  /// Marks an invalid way: never a line address (those are aligned).
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};

  size_t SetBase(uint64_t line_addr) const {
    return static_cast<size_t>((line_addr >> line_shift_) & set_mask_) *
           assoc_;
  }

  uint32_t line_shift_;
  uint32_t assoc_;
  uint32_t set_mask_;
  uint64_t lru_clock_ = 0;
  // num_sets * assoc ways, set-major.
  AlignedBuffer<uint64_t> tags_;
  std::vector<uint64_t> lru_;  // larger = more recently used
  std::vector<LineInfo> info_;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evicted_before_use_ = 0;
};

}  // namespace sim
}  // namespace hashjoin

#endif  // HASHJOIN_SIMCACHE_CACHE_H_
