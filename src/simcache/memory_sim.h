#ifndef HASHJOIN_SIMCACHE_MEMORY_SIM_H_
#define HASHJOIN_SIMCACHE_MEMORY_SIM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simcache/branch.h"
#include "simcache/cache.h"
#include "simcache/sim_config.h"
#include "simcache/stats.h"
#include "simcache/tlb.h"

namespace hashjoin {
namespace sim {

/// Trace-driven model of the paper's simulated machine (Table 2): a
/// two-level data cache, hardware-walked DTLB, a limited pool of miss
/// handlers, bandwidth-limited main memory (full latency T, pipelined
/// gap Tnext), software prefetching with TLB prefetch, and an optional
/// periodic cache flusher (the Figure-18 interference model).
///
/// The join/partition kernels run for real on real data structures and
/// report their memory references and per-stage busy cycles here; the
/// simulator converts that event stream into the paper's cycle breakdown
/// (busy / data-cache stalls / TLB stalls / other stalls).
///
/// Substitution note (see DESIGN.md §3): this replaces the authors'
/// cycle-by-cycle out-of-order simulator. Out-of-order lookahead is not
/// modeled because — as the paper argues in §1.2 — a 128-entry reorder
/// buffer cannot hide 150-1000 cycle misses; what determines the figures
/// is exactly the cache/TLB/MSHR/bandwidth behaviour modeled here.
class MemorySim {
 public:
  /// Checks that the simulator can run `config`: at least one miss
  /// handler and one DTLB entry, power-of-two line_size, and a
  /// power-of-two page_size no smaller than a line.
  explicit MemorySim(const SimConfig& config);

  MemorySim(const MemorySim&) = delete;
  MemorySim& operator=(const MemorySim&) = delete;

  /// Charges `cycles` of instruction execution (computation).
  void Busy(uint32_t cycles) {
    now_ += cycles;
    stats_.busy_cycles += cycles;
  }

  /// A demand reference covering [addr, addr+size). Charges any cache,
  /// TLB, and memory stalls. `write` only affects stats today (the model
  /// is write-allocate with writeback traffic folded into Tnext).
  void Access(const void* addr, size_t size, bool write) {
    const uint64_t a = reinterpret_cast<uint64_t>(addr);
    const uint64_t first = a & line_mask_;
    const uint64_t last = (a + (size == 0 ? 0 : size - 1)) & line_mask_;
    if (first == last) {
      AccessLine(first);
    } else {
      AccessLines(first, last);
    }
  }

  /// Issues a software prefetch for every line of [addr, addr+size).
  /// Never dropped: if all miss handlers are busy the request queues
  /// (paper §7.1). Installs TLB entries without demand stalls.
  void Prefetch(const void* addr, size_t size = 1);

  /// Records the outcome of a conditional branch at site `site`; charges
  /// the misprediction penalty as "other stall" when the 2-bit predictor
  /// is wrong.
  void Branch(uint32_t site, bool taken) {
    if (predictor_.Record(site, taken)) {
      ++stats_.branch_mispredicts;
      StallUntil(now_ + config_.branch_mispredict_penalty,
                 &stats_.other_stall_cycles);
    }
  }

  /// Current simulated time in cycles.
  uint64_t now() const { return now_; }

  const SimConfig& config() const { return config_; }

  /// Snapshot of the counters, with conflict-eviction counts folded in
  /// from the cache models.
  SimStats stats() const;

  /// Zeroes the counters but keeps cache/TLB contents (so a phase can be
  /// measured warm).
  void ResetStats();

  /// Folds externally accumulated counters into this simulator's totals.
  /// The parallel executor runs each worker thread against its own
  /// MemorySim (own caches, own clock) and merges the workers' stats()
  /// snapshots here, so windowed measurements (stats-after minus
  /// stats-before) on the main simulator include all worker activity.
  void AddStats(const SimStats& s) { stats_ += s; }

  /// Empties caches and TLB (cold start).
  void FlushAll();

 private:
  static constexpr uint64_t kNoFlush = UINT64_MAX;

  /// One demand line: the TLB and L1 hit paths inline, the rest out of
  /// line.
  void AccessLine(uint64_t line_addr) {
    if (now_ >= next_flush_) PeriodicFlush();

    // Hardware-walked TLB; demand misses expose the walk latency.
    if (!tlb_.Lookup(line_addr)) DemandTlbMiss(line_addr);

    SetAssocCache::LineInfo* info = l1_.Lookup(line_addr);
    if (info == nullptr) {
      L1Miss(line_addr);
      return;
    }
    if (info->prefetched && !info->referenced) {
      // First demand touch of a prefetched line.
      if (info->ready_time > now_) {
        ++stats_.prefetch_partial;
        StallUntil(info->ready_time, &stats_.dcache_stall_cycles);
      } else {
        ++stats_.prefetch_hidden;
      }
    } else {
      StallUntil(info->ready_time, &stats_.dcache_stall_cycles);
      ++stats_.l1_hits;
    }
    info->referenced = true;
  }

  void AccessLines(uint64_t first, uint64_t last);
  void DemandTlbMiss(uint64_t line_addr);
  void L1Miss(uint64_t line_addr);
  void PrefetchLine(uint64_t line_addr);

  /// Books a main-memory transfer respecting the MSHR limit and the
  /// bandwidth gap; returns its completion cycle.
  uint64_t IssueMemoryRequest();

  /// Advances simulated time to `t`, charging the delta to *bucket.
  void StallUntil(uint64_t t, uint64_t* bucket) {
    if (t <= now_) return;
    *bucket += t - now_;
    now_ = t;
  }

  /// Flushes caches and TLB for every flush period that has elapsed.
  void PeriodicFlush();

  SimConfig config_;
  uint64_t line_mask_;  // clears the offset within a line
  SetAssocCache l1_;
  SetAssocCache l2_;
  Tlb tlb_;
  BranchPredictor predictor_;
  SimStats stats_;

  uint64_t now_ = 0;
  uint64_t next_bus_free_ = 0;
  uint64_t next_flush_ = kNoFlush;
  // Completion times of the transfers holding miss handlers, oldest
  // first: a FIFO ring of miss_handlers slots. Issue order is completion
  // order, so the oldest is also the earliest to retire.
  std::vector<uint64_t> handlers_;
  uint32_t handlers_head_ = 0;
  uint32_t handlers_busy_ = 0;
};

}  // namespace sim
}  // namespace hashjoin

#endif  // HASHJOIN_SIMCACHE_MEMORY_SIM_H_
