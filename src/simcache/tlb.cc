#include "simcache/tlb.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/logging.h"

namespace hashjoin {
namespace sim {

namespace {

// Index of the smallest LRU stamp (stamps are distinct). Four running
// minima break the compare chain a single minimum would carry through
// every step; a second, predictable pass finds the position.
uint32_t OldestEntry(const std::vector<uint64_t>& lru) {
  uint64_t m0 = UINT64_MAX, m1 = UINT64_MAX, m2 = UINT64_MAX,
           m3 = UINT64_MAX;
  size_t i = 0;
  for (; i + 4 <= lru.size(); i += 4) {
    m0 = std::min(m0, lru[i]);
    m1 = std::min(m1, lru[i + 1]);
    m2 = std::min(m2, lru[i + 2]);
    m3 = std::min(m3, lru[i + 3]);
  }
  for (; i < lru.size(); ++i) m0 = std::min(m0, lru[i]);
  const uint64_t oldest = std::min(std::min(m0, m1), std::min(m2, m3));
  return static_cast<uint32_t>(std::find(lru.begin(), lru.end(), oldest) -
                               lru.begin());
}

}  // namespace

Tlb::Tlb(uint32_t entries, uint32_t page_size)
    : page_shift_(Log2(page_size)), capacity_(entries) {
  HJ_CHECK(entries > 0);
  HJ_CHECK(IsPowerOfTwo(page_size)) << "page_size must be a power of two";
  const uint64_t slots = NextPowerOfTwo(2 * uint64_t{entries});
  slot_shift_ = 64 - Log2(slots);
  slot_mask_ = static_cast<uint32_t>(slots - 1);
  pages_.resize(entries);
  lru_.resize(entries);
  slots_.assign(slots, kEmpty);
}

void Tlb::EraseSlot(uint32_t s) {
  uint32_t hole = s;
  for (uint32_t i = (s + 1) & slot_mask_; slots_[i] != kEmpty;
       i = (i + 1) & slot_mask_) {
    // The entry at i may fill the hole unless its home slot lies
    // cyclically in (hole, i].
    uint32_t home = Home(pages_[slots_[i]]);
    if (((i - home) & slot_mask_) >= ((i - hole) & slot_mask_)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = kEmpty;
}

void Tlb::Insert(uint64_t addr) {
  uint64_t page = addr >> page_shift_;
  uint32_t s = FindSlot(page);
  if (slots_[s] != kEmpty) {
    lru_[slots_[s]] = ++lru_clock_;
    return;
  }
  // Entries are invalidated only all at once (Flush), so the first
  // invalid entry is the fill count.
  uint32_t e = filled_;
  if (filled_ < capacity_) {
    ++filled_;
  } else {
    e = OldestEntry(lru_);
    EraseSlot(FindSlot(pages_[e]));
    s = FindSlot(page);  // the erase may have opened an earlier slot
  }
  pages_[e] = page;
  lru_[e] = ++lru_clock_;
  slots_[s] = e;
}

void Tlb::Flush() {
  filled_ = 0;
  std::fill(slots_.begin(), slots_.end(), kEmpty);
}

void Tlb::ResetStats() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace sim
}  // namespace hashjoin
