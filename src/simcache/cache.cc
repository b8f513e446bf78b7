#include "simcache/cache.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/logging.h"

namespace hashjoin {
namespace sim {

SetAssocCache::SetAssocCache(uint32_t size, uint32_t assoc,
                             uint32_t line_size)
    : line_shift_(Log2(line_size)), assoc_(assoc) {
  HJ_CHECK(assoc > 0);
  HJ_CHECK(IsPowerOfTwo(line_size)) << "line_size must be a power of two";
  HJ_CHECK(size % (assoc * line_size) == 0)
      << "cache size must be a multiple of assoc * line_size";
  const uint32_t num_sets = size / (assoc * line_size);
  HJ_CHECK(IsPowerOfTwo(num_sets));
  set_mask_ = num_sets - 1;
  const size_t ways = static_cast<size_t>(num_sets) * assoc_;
  tags_ = MakeAlignedBuffer<uint64_t>(ways);
  std::fill(tags_.get(), tags_.get() + ways, kInvalidTag);
  lru_.resize(ways);
  info_.resize(ways);
}

SetAssocCache::LineInfo* SetAssocCache::Insert(uint64_t line_addr) {
  const size_t base = SetBase(line_addr);
  for (uint32_t w = 0; w < assoc_; ++w) {
    if (tags_[base + w] == line_addr) {
      // Refill of a resident line: keep position, reset metadata.
      lru_[base + w] = ++lru_clock_;
      info_[base + w] = LineInfo{};
      return &info_[base + w];
    }
  }
  return InsertMissing(line_addr);
}

SetAssocCache::LineInfo* SetAssocCache::InsertMissing(uint64_t line_addr) {
  HJ_DCHECK(line_addr != kInvalidTag);
  const size_t base = SetBase(line_addr);
  // Prefer the first invalid way; otherwise evict the least recently used.
  size_t victim = base;
  for (size_t w = base; w < base + assoc_; ++w) {
    HJ_DCHECK(tags_[w] != line_addr);
    if (tags_[w] == kInvalidTag) {
      victim = w;
      break;
    }
    if (lru_[w] < lru_[victim]) victim = w;
  }
  if (tags_[victim] != kInvalidTag && info_[victim].prefetched &&
      !info_[victim].referenced) {
    ++evicted_before_use_;
  }
  tags_[victim] = line_addr;
  lru_[victim] = ++lru_clock_;
  info_[victim] = LineInfo{};
  return &info_[victim];
}

void SetAssocCache::Flush() {
  std::fill(tags_.get(), tags_.get() + lru_.size(), kInvalidTag);
}

void SetAssocCache::Invalidate(uint64_t line_addr) {
  const size_t base = SetBase(line_addr);
  for (size_t w = base; w < base + assoc_; ++w) {
    if (tags_[w] == line_addr) tags_[w] = kInvalidTag;
  }
}

void SetAssocCache::RebaseTime(uint64_t base) {
  for (size_t w = 0; w < info_.size(); ++w) {
    if (tags_[w] == kInvalidTag) continue;
    uint64_t& t = info_[w].ready_time;
    t = t > base ? t - base : 0;
  }
}

void SetAssocCache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
  evicted_before_use_ = 0;
}

}  // namespace sim
}  // namespace hashjoin
