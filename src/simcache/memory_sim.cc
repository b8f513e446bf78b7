#include "simcache/memory_sim.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/logging.h"

namespace hashjoin {
namespace sim {

namespace {

const SimConfig& Validated(const SimConfig& c) {
  HJ_CHECK(c.miss_handlers >= 1) << "miss_handlers must be at least 1";
  HJ_CHECK(c.dtlb_entries >= 1) << "dtlb_entries must be at least 1";
  HJ_CHECK(IsPowerOfTwo(c.line_size)) << "line_size must be a power of two";
  HJ_CHECK(IsPowerOfTwo(c.page_size) && c.page_size >= c.line_size)
      << "page_size must be a power of two no smaller than line_size";
  return c;
}

}  // namespace

MemorySim::MemorySim(const SimConfig& config)
    : config_(Validated(config)),
      line_mask_(~(uint64_t{config.line_size} - 1)),
      l1_(config.l1d_size, config.l1d_assoc, config.line_size),
      l2_(config.l2_size, config.l2_assoc, config.line_size),
      tlb_(config.dtlb_entries, config.page_size),
      handlers_(config.miss_handlers) {
  if (config_.flush_period_cycles > 0) {
    next_flush_ = config_.flush_period_cycles;
  }
}

void MemorySim::PeriodicFlush() {
  while (now_ >= next_flush_) {
    l1_.Flush();
    l2_.Flush();
    tlb_.Flush();
    next_flush_ += config_.flush_period_cycles;
  }
}

uint64_t MemorySim::IssueMemoryRequest() {
  const uint32_t capacity = config_.miss_handlers;
  auto retire = [&] {
    if (++handlers_head_ == capacity) handlers_head_ = 0;
    --handlers_busy_;
  };
  uint64_t start = std::max(now_, next_bus_free_);
  // Retire handlers whose transfers completed before this request starts.
  while (handlers_busy_ > 0 && handlers_[handlers_head_] <= start) retire();
  // All handlers busy: the request waits for the earliest to retire.
  if (handlers_busy_ == capacity) {
    start = std::max(start, handlers_[handlers_head_]);
    retire();
  }
  uint64_t completion = start + config_.memory_latency;
  next_bus_free_ = start + config_.memory_bandwidth_gap;
  uint32_t tail = handlers_head_ + handlers_busy_;
  handlers_[tail >= capacity ? tail - capacity : tail] = completion;
  ++handlers_busy_;
  return completion;
}

void MemorySim::DemandTlbMiss(uint64_t line_addr) {
  ++stats_.tlb_misses;
  StallUntil(now_ + config_.tlb_miss_latency, &stats_.dtlb_stall_cycles);
  tlb_.Insert(line_addr);
}

void MemorySim::L1Miss(uint64_t line_addr) {
  if (SetAssocCache::LineInfo* info2 = l2_.Lookup(line_addr)) {
    // L1 miss, L2 hit: expose L2 latency (plus any in-flight remainder if
    // the line was prefetched into L2 and is still on its way).
    uint64_t ready = std::max(now_ + config_.l2_hit_latency,
                              info2->ready_time + config_.l2_hit_latency);
    bool was_prefetch = info2->prefetched && !info2->referenced;
    info2->referenced = true;
    if (was_prefetch && info2->ready_time > now_) {
      ++stats_.prefetch_partial;
    } else {
      ++stats_.l2_hits;
    }
    StallUntil(ready, &stats_.dcache_stall_cycles);
    l1_.InsertMissing(line_addr)->referenced = true;
    return;
  }

  // Full miss to main memory.
  ++stats_.full_misses;
  uint64_t completion = IssueMemoryRequest();
  StallUntil(completion, &stats_.dcache_stall_cycles);
  l2_.InsertMissing(line_addr)->referenced = true;
  l1_.InsertMissing(line_addr)->referenced = true;
}

void MemorySim::PrefetchLine(uint64_t line_addr) {
  if (now_ >= next_flush_) PeriodicFlush();
  ++stats_.prefetches_issued;
  stats_.busy_cycles += config_.cost_prefetch_issue;
  now_ += config_.cost_prefetch_issue;

  // TLB prefetch: install without a demand stall (paper §2, §7.1).
  if (!tlb_.Lookup(line_addr)) tlb_.Insert(line_addr);

  if (l1_.Lookup(line_addr) != nullptr) return;  // already resident

  if (SetAssocCache::LineInfo* info2 = l2_.Lookup(line_addr)) {
    // L2 -> L1 prefetch: arrives after the L2 hit latency.
    uint64_t ready = std::max(now_ + config_.l2_hit_latency,
                              info2->ready_time + config_.l2_hit_latency);
    SetAssocCache::LineInfo* fill = l1_.InsertMissing(line_addr);
    fill->prefetched = true;
    fill->ready_time = ready;
    return;
  }

  uint64_t completion = IssueMemoryRequest();
  for (SetAssocCache* c : {&l2_, &l1_}) {
    SetAssocCache::LineInfo* fill = c->InsertMissing(line_addr);
    fill->prefetched = true;
    fill->ready_time = completion;
  }
}

void MemorySim::AccessLines(uint64_t first, uint64_t last) {
  for (uint64_t line = first;; line += config_.line_size) {
    AccessLine(line);
    if (line == last) break;
  }
}

void MemorySim::Prefetch(const void* addr, size_t size) {
  const uint64_t a = reinterpret_cast<uint64_t>(addr);
  const uint64_t last = (a + (size == 0 ? 0 : size - 1)) & line_mask_;
  for (uint64_t line = a & line_mask_;; line += config_.line_size) {
    PrefetchLine(line);
    if (line == last) break;
  }
}

SimStats MemorySim::stats() const {
  SimStats s = stats_;
  // L1 conflict victims: prefetched lines evicted before their first
  // demand touch (the paper's Figure 13/17 "cache conflict" pathology),
  // on top of the workers' merged in by AddStats.
  s.prefetch_evicted_before_use += l1_.evicted_before_use();
  return s;
}

void MemorySim::ResetStats() {
  stats_ = SimStats{};
  l1_.ResetStats();
  l2_.ResetStats();
  tlb_.ResetStats();
  // Re-base time so the cycle buckets partition elapsed time from here.
  // Outstanding transfers and cache contents are preserved (including
  // in-flight prefetched lines, whose arrival times shift with the
  // clock).
  uint64_t base = now_;
  now_ = 0;
  next_bus_free_ = next_bus_free_ > base ? next_bus_free_ - base : 0;
  for (uint64_t& c : handlers_) c = c > base ? c - base : 0;
  l1_.RebaseTime(base);
  l2_.RebaseTime(base);
  if (next_flush_ != kNoFlush) {
    next_flush_ = next_flush_ > base ? next_flush_ - base
                                     : config_.flush_period_cycles;
  }
}

void MemorySim::FlushAll() {
  l1_.Flush();
  l2_.Flush();
  tlb_.Flush();
}

}  // namespace sim
}  // namespace hashjoin
