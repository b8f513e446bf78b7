#ifndef HASHJOIN_SIMCACHE_TLB_H_
#define HASHJOIN_SIMCACHE_TLB_H_

#include <cstdint>
#include <vector>

namespace hashjoin {
namespace sim {

/// Fully-associative data TLB with true-LRU replacement (64 entries over
/// 8KB pages in the paper's Table 2). Hardware-walked: a miss costs a
/// fixed penalty and installs the entry; prefetch-induced fills install
/// the entry without charging a demand stall (TLB prefetching, paper §2).
///
/// Entries are a structure of arrays (page, lru) filled in order; an
/// open-addressed page -> entry index (linear probing, at least twice as
/// many slots as entries, backward-shift deletion) makes a lookup one
/// probe whatever the entry count. Only an insert into a full TLB scans
/// the entries, for the LRU victim.
class Tlb {
 public:
  /// `page_size` must be a power of two.
  Tlb(uint32_t entries, uint32_t page_size);

  /// True if the page containing addr is mapped; promotes to MRU.
  bool Lookup(uint64_t addr) {
    uint32_t e = slots_[FindSlot(addr >> page_shift_)];
    if (e == kEmpty) {
      ++misses_;
      return false;
    }
    lru_[e] = ++lru_clock_;
    ++hits_;
    return true;
  }

  /// Installs the page containing addr (evicting LRU if full).
  void Insert(uint64_t addr);

  /// Drops every entry.
  void Flush();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  void ResetStats();

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  uint32_t Home(uint64_t page) const {
    // Fibonacci hashing: the top bits of page * 2^64/phi.
    return static_cast<uint32_t>((page * 0x9E3779B97F4A7C15ull) >>
                                 slot_shift_);
  }

  /// The slot holding `page`'s entry, or the empty slot that ends its
  /// probe sequence.
  uint32_t FindSlot(uint64_t page) const {
    uint32_t s = Home(page);
    while (slots_[s] != kEmpty && pages_[slots_[s]] != page) {
      s = (s + 1) & slot_mask_;
    }
    return s;
  }

  /// Empties slot `s`, shifting later members of its probe run back so
  /// every entry stays reachable from its home slot.
  void EraseSlot(uint32_t s);

  uint32_t page_shift_;
  uint32_t capacity_;
  uint32_t filled_ = 0;  // entries [0, filled_) are valid
  uint32_t slot_shift_;  // 64 - log2(slot count)
  uint32_t slot_mask_;
  uint64_t lru_clock_ = 0;
  std::vector<uint64_t> pages_;  // per entry
  std::vector<uint64_t> lru_;    // per entry; larger = more recent
  std::vector<uint32_t> slots_;  // entry index or kEmpty
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace sim
}  // namespace hashjoin

#endif  // HASHJOIN_SIMCACHE_TLB_H_
