#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mem/memory_model.h"
#include "simcache/branch.h"
#include "simcache/cache.h"
#include "simcache/memory_sim.h"
#include "simcache/tlb.h"
#include "util/aligned.h"

namespace hashjoin {
namespace sim {
namespace {

SimConfig SmallConfig() {
  SimConfig cfg;
  cfg.l1d_size = 4 * 1024;  // 4KB, 4-way, 64B lines -> 16 sets
  cfg.l1d_assoc = 4;
  cfg.l2_size = 64 * 1024;
  cfg.l2_assoc = 8;
  cfg.dtlb_entries = 8;
  return cfg;
}

TEST(SetAssocCacheTest, MissThenHit) {
  SetAssocCache c(4096, 4, 64);
  EXPECT_EQ(c.Lookup(0), nullptr);
  c.Insert(0);
  EXPECT_NE(c.Lookup(0), nullptr);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCacheTest, LruEvictionWithinSet) {
  SetAssocCache c(4096, 4, 64);  // 16 sets
  // 5 lines mapping to set 0: addresses k * 16 * 64.
  uint64_t stride = 16 * 64;
  for (uint64_t i = 0; i < 5; ++i) c.Insert(i * stride);
  // Line 0 was LRU and must be gone; lines 1..4 resident.
  EXPECT_EQ(c.Lookup(0), nullptr);
  for (uint64_t i = 1; i < 5; ++i) {
    EXPECT_NE(c.Lookup(i * stride), nullptr) << i;
  }
}

TEST(SetAssocCacheTest, LookupPromotesToMru) {
  SetAssocCache c(4096, 4, 64);
  uint64_t stride = 16 * 64;
  for (uint64_t i = 0; i < 4; ++i) c.Insert(i * stride);
  c.Lookup(0);                // line 0 becomes MRU
  c.Insert(4 * stride);       // evicts line 1 (now LRU), not line 0
  EXPECT_NE(c.Lookup(0), nullptr);
  EXPECT_EQ(c.Lookup(1 * stride), nullptr);
}

TEST(SetAssocCacheTest, FlushEmptiesEverything) {
  SetAssocCache c(4096, 4, 64);
  for (uint64_t i = 0; i < 32; ++i) c.Insert(i * 64);
  c.Flush();
  for (uint64_t i = 0; i < 32; ++i) EXPECT_EQ(c.Lookup(i * 64), nullptr);
}

TEST(SetAssocCacheTest, EvictedBeforeUseCounted) {
  SetAssocCache c(4096, 4, 64);
  uint64_t stride = 16 * 64;
  auto* info = c.Insert(0);
  info->prefetched = true;  // prefetched, never referenced
  for (uint64_t i = 1; i <= 4; ++i) c.Insert(i * stride);
  EXPECT_EQ(c.evicted_before_use(), 1u);
}

TEST(SetAssocCacheTest, ReferencedPrefetchNotCountedOnEviction) {
  SetAssocCache c(4096, 4, 64);
  uint64_t stride = 16 * 64;
  auto* info = c.Insert(0);
  info->prefetched = true;
  info->referenced = true;
  for (uint64_t i = 1; i <= 4; ++i) c.Insert(i * stride);
  EXPECT_EQ(c.evicted_before_use(), 0u);
}

TEST(TlbTest, MissInsertHit) {
  Tlb tlb(4, 8192);
  EXPECT_FALSE(tlb.Lookup(0));
  tlb.Insert(0);
  EXPECT_TRUE(tlb.Lookup(0));
  EXPECT_TRUE(tlb.Lookup(100));  // same page
  EXPECT_FALSE(tlb.Lookup(8192));
}

TEST(TlbTest, LruEviction) {
  Tlb tlb(2, 8192);
  tlb.Insert(0 * 8192);
  tlb.Insert(1 * 8192);
  tlb.Lookup(0);             // page 0 MRU
  tlb.Insert(2 * 8192);      // evicts page 1
  EXPECT_TRUE(tlb.Lookup(0));
  EXPECT_FALSE(tlb.Lookup(1 * 8192));
  EXPECT_TRUE(tlb.Lookup(2 * 8192));
}

TEST(TlbTest, FlushDropsAll) {
  Tlb tlb(4, 8192);
  tlb.Insert(0);
  tlb.Flush();
  EXPECT_FALSE(tlb.Lookup(0));
}

TEST(BranchPredictorTest, LearnsStableDirection) {
  BranchPredictor p;
  int mispredicts = 0;
  for (int i = 0; i < 100; ++i) mispredicts += p.Record(1, true);
  EXPECT_LE(mispredicts, 2);  // warms up quickly
}

TEST(BranchPredictorTest, AlternatingIsHard) {
  BranchPredictor p;
  int mispredicts = 0;
  for (int i = 0; i < 100; ++i) mispredicts += p.Record(2, i % 2 == 0);
  EXPECT_GT(mispredicts, 30);
}

// --- MemorySim ---

TEST(MemorySimTest, BusyOnlyAccumulates) {
  MemorySim sim(SmallConfig());
  sim.Busy(100);
  sim.Busy(50);
  EXPECT_EQ(sim.stats().busy_cycles, 150u);
  EXPECT_EQ(sim.now(), 150u);
}

TEST(MemorySimTest, CyclesPartitionTotalExactly) {
  MemorySim sim(SmallConfig());
  auto buf = MakeAlignedBuffer<uint8_t>(1 << 16);
  for (int i = 0; i < 1000; ++i) {
    sim.Busy(3);
    sim.Access(buf.get() + (i * 97) % (1 << 16), 8, i % 3 == 0);
    if (i % 7 == 0) sim.Prefetch(buf.get() + (i * 131) % (1 << 16), 64);
    sim.Branch(i % 4, i % 5 == 0);
  }
  SimStats s = sim.stats();
  EXPECT_EQ(s.TotalCycles(), sim.now());
}

TEST(MemorySimTest, MergedWorkerCountsSurviveStats) {
  // A worker's mispredicts and early-evicted prefetches, merged through
  // AddStats, add to the main simulator's own in stats().
  SimConfig cfg = SmallConfig();
  constexpr uint32_t kMispredicts = 50;
  constexpr uint32_t kSetStride = 16 * 64;  // SmallConfig's L1: 16 sets
  auto drive = [&](MemorySim& sim, uint32_t branches) {
    // Every fresh site starts weakly taken, so a not-taken outcome is
    // one mispredict each.
    for (uint32_t site = 0; site < branches; ++site) sim.Branch(site, false);
    // Eight unreferenced prefetches into one 4-way L1 set.
    auto buf = MakeAlignedBuffer<uint8_t>(8 * kSetStride);
    for (uint32_t i = 0; i < 8; ++i) sim.Prefetch(buf.get() + i * kSetStride);
    return sim.stats();
  };
  MemorySim worker(cfg);
  const SimStats w = drive(worker, kMispredicts);
  ASSERT_EQ(w.branch_mispredicts, kMispredicts);
  ASSERT_GT(w.prefetch_evicted_before_use, 0u);

  MemorySim main(cfg);
  const SimStats own = drive(main, 1);
  main.AddStats(w);
  const SimStats merged = main.stats();
  EXPECT_EQ(merged.branch_mispredicts, kMispredicts + 1);
  EXPECT_EQ(merged.prefetch_evicted_before_use,
            w.prefetch_evicted_before_use + own.prefetch_evicted_before_use);
  EXPECT_EQ(merged.other_stall_cycles,
            w.other_stall_cycles + own.other_stall_cycles);
}

TEST(MemorySimTest, ColdMissPaysFullLatency) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(4096);
  // Warm the TLB so only the cache miss is charged.
  sim.Prefetch(buf.get(), 1);
  uint64_t before = sim.now();
  // Access a different page-offset line... same page, uncached line.
  sim.Access(buf.get() + 2048, 1, false);
  SimStats s = sim.stats();
  EXPECT_EQ(s.full_misses, 1u);
  EXPECT_GE(sim.now() - before, cfg.memory_latency);
}

TEST(MemorySimTest, HitCostsNothing) {
  MemorySim sim(SmallConfig());
  auto buf = MakeAlignedBuffer<uint8_t>(64);
  sim.Access(buf.get(), 8, false);
  uint64_t after_first = sim.now();
  sim.Access(buf.get(), 8, false);
  EXPECT_EQ(sim.now(), after_first);
  EXPECT_EQ(sim.stats().l1_hits, 1u);
}

TEST(MemorySimTest, PrefetchHidesLatencyWithEnoughWork) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(4096);
  sim.Prefetch(buf.get(), 1);
  sim.Busy(cfg.memory_latency + cfg.tlb_miss_latency + 10);
  uint64_t before_stall = sim.stats().dcache_stall_cycles;
  sim.Access(buf.get(), 8, false);
  SimStats s = sim.stats();
  EXPECT_EQ(s.prefetch_hidden, 1u);
  EXPECT_EQ(s.dcache_stall_cycles, before_stall);
}

TEST(MemorySimTest, LatePrefetchPartiallyHides) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(4096);
  sim.Prefetch(buf.get(), 1);
  sim.Busy(10);  // much less than memory_latency
  sim.Access(buf.get(), 8, false);
  SimStats s = sim.stats();
  EXPECT_EQ(s.prefetch_partial, 1u);
  EXPECT_GT(s.dcache_stall_cycles, 0u);
  EXPECT_LT(s.dcache_stall_cycles, cfg.memory_latency);
}

TEST(MemorySimTest, DemandTlbMissCharged) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(64);
  sim.Access(buf.get(), 8, false);
  EXPECT_EQ(sim.stats().tlb_misses, 1u);
  EXPECT_EQ(sim.stats().dtlb_stall_cycles, cfg.tlb_miss_latency);
}

TEST(MemorySimTest, PrefetchInstallsTlbWithoutStall) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(64);
  sim.Prefetch(buf.get(), 1);
  EXPECT_EQ(sim.stats().dtlb_stall_cycles, 0u);
  sim.Busy(cfg.memory_latency + 1);
  sim.Access(buf.get(), 8, false);
  EXPECT_EQ(sim.stats().tlb_misses, 0u);
  EXPECT_EQ(sim.stats().dtlb_stall_cycles, 0u);
}

TEST(MemorySimTest, L2HitCheaperThanMemory) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(64 * 1024);
  sim.Access(buf.get(), 1, false);  // into L1 + L2
  // Evict from tiny L1 by touching many conflicting lines.
  for (int i = 1; i <= 8; ++i) {
    sim.Access(buf.get() + i * 4096, 1, false);
  }
  uint64_t stall_before = sim.stats().dcache_stall_cycles;
  sim.Access(buf.get(), 1, false);  // L1 miss, L2 hit
  uint64_t delta = sim.stats().dcache_stall_cycles - stall_before;
  EXPECT_EQ(delta, cfg.l2_hit_latency);
  EXPECT_GE(sim.stats().l2_hits, 1u);
}

TEST(MemorySimTest, BandwidthSerializesPipelinedMisses) {
  SimConfig cfg = SmallConfig();
  cfg.memory_bandwidth_gap = 40;
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(1 << 15);
  // Issue 16 prefetches back-to-back; the 16th starts no earlier than
  // 15 * Tnext, so waiting for all takes ~ 15*Tnext + T.
  for (int i = 0; i < 16; ++i) sim.Prefetch(buf.get() + i * 64, 1);
  for (int i = 0; i < 16; ++i) sim.Access(buf.get() + i * 64, 1, false);
  EXPECT_GE(sim.now(), 15u * cfg.memory_bandwidth_gap + cfg.memory_latency);
}

TEST(MemorySimTest, MshrLimitDelaysExcessPrefetches) {
  SimConfig cfg = SmallConfig();
  cfg.miss_handlers = 2;
  cfg.memory_bandwidth_gap = 1;
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(1 << 15);
  for (int i = 0; i < 8; ++i) sim.Prefetch(buf.get() + i * 64, 1);
  // With only 2 handlers the 8 transfers pipeline in pairs: the last
  // completes no earlier than 4 * T.
  sim.Access(buf.get() + 7 * 64, 1, false);
  EXPECT_GE(sim.now(), 4u * cfg.memory_latency);
}

TEST(MemorySimTest, PeriodicFlushForcesRemisses) {
  SimConfig cfg = SmallConfig();
  cfg.flush_period_cycles = 1000;
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(64);
  sim.Access(buf.get(), 8, false);
  EXPECT_EQ(sim.stats().full_misses, 1u);
  sim.Busy(2000);  // cross the flush boundary
  sim.Access(buf.get(), 8, false);
  EXPECT_EQ(sim.stats().full_misses, 2u);
  EXPECT_GE(sim.stats().tlb_misses, 2u);
}

TEST(MemorySimTest, NoFlushWhenDisabled) {
  MemorySim sim(SmallConfig());
  auto buf = MakeAlignedBuffer<uint8_t>(64);
  sim.Access(buf.get(), 8, false);
  sim.Busy(100000000);
  sim.Access(buf.get(), 8, false);
  EXPECT_EQ(sim.stats().full_misses, 1u);
}

TEST(MemorySimTest, BranchMispredictChargesOtherStall) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  // Alternating outcomes at one site mispredict often.
  for (int i = 0; i < 100; ++i) sim.Branch(3, i % 2 == 0);
  SimStats s = sim.stats();
  EXPECT_GT(s.branch_mispredicts, 0u);
  EXPECT_EQ(s.other_stall_cycles,
            s.branch_mispredicts * cfg.branch_mispredict_penalty);
}

TEST(MemorySimTest, ResetStatsRebasesPrefetchArrivalTimes) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(4096);
  sim.Prefetch(buf.get(), 1);
  sim.Busy(cfg.memory_latency + 100);  // the line has long arrived
  sim.ResetStats();
  sim.Access(buf.get(), 8, false);
  // The line completed before the reset: no stall may be charged on the
  // re-based clock (regression: absolute ready_time leaking across
  // ResetStats charged phantom stalls).
  EXPECT_EQ(sim.stats().dcache_stall_cycles, 0u);
}

TEST(MemorySimTest, ResetStatsKeepsInFlightPrefetchInFlight) {
  SimConfig cfg = SmallConfig();
  MemorySim sim(cfg);
  auto buf = MakeAlignedBuffer<uint8_t>(4096);
  sim.Busy(50);
  sim.Prefetch(buf.get(), 1);  // completes ~latency cycles from now
  sim.ResetStats();
  sim.Access(buf.get(), 8, false);  // still on its way: partial stall
  SimStats s = sim.stats();
  EXPECT_EQ(s.prefetch_partial, 1u);
  EXPECT_GT(s.dcache_stall_cycles, 0u);
  EXPECT_LE(s.dcache_stall_cycles, cfg.memory_latency);
}

TEST(MemorySimTest, ResetStatsPreservesCacheContents) {
  MemorySim sim(SmallConfig());
  auto buf = MakeAlignedBuffer<uint8_t>(64);
  sim.Access(buf.get(), 8, false);
  sim.ResetStats();
  EXPECT_EQ(sim.stats().TotalCycles(), 0u);
  sim.Access(buf.get(), 8, false);  // still cached
  EXPECT_EQ(sim.stats().l1_hits, 1u);
  EXPECT_EQ(sim.stats().full_misses, 0u);
}

TEST(MemorySimTest, MultiLineAccessTouchesEachLine) {
  MemorySim sim(SmallConfig());
  auto buf = MakeAlignedBuffer<uint8_t>(512);
  sim.Access(buf.get(), 256, false);  // 4 lines
  SimStats s = sim.stats();
  EXPECT_EQ(s.DemandLineAccesses(), 4u);
}

TEST(MemorySimTest, StatsDiffIsExact) {
  MemorySim sim(SmallConfig());
  auto buf = MakeAlignedBuffer<uint8_t>(4096);
  sim.Access(buf.get(), 8, false);
  SimStats before = sim.stats();
  sim.Busy(10);
  sim.Access(buf.get() + 1024, 8, false);
  SimStats delta = sim.stats() - before;
  EXPECT_EQ(delta.busy_cycles, 10u);
  EXPECT_EQ(delta.full_misses, 1u);
}

// --- exactness: seeded synthetic traces against golden SimStats ---
//
// The traces use synthetic addresses (never dereferenced), so the stats
// depend on nothing but the seed and the config. The goldens were
// captured from the linear-scan simulator these tests guard: any change
// to the cache, DTLB or miss-handler bookkeeping that moves one counter
// fails here.

// SplitMix64, self-contained so no standard-library distribution
// shapes the traces.
class TraceRng {
 public:
  explicit TraceRng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Coin() { return (Next() & 1) != 0; }

 private:
  uint64_t s_;
};

const void* At(uint64_t addr) {
  return reinterpret_cast<const void*>(static_cast<uintptr_t>(addr));
}

constexpr uint64_t kTraceBase = uint64_t{1} << 32;
constexpr uint64_t kTraceRegion = 4 << 20;  // 512 8 KiB pages
// Maps to one set of L1 and L2 in both trace configs (128 KiB is a
// multiple of every set span): bursts along it evict unreferenced
// prefetched lines.
constexpr uint64_t kConflictStride = 128 << 10;
constexpr uint64_t kConflictLines = 24;

// Replays `steps` events: sequential, random, hot-set and strided
// demand accesses of 1-200 bytes, prefetches straddling lines and
// pages, Busy and Branch. Calls ResetStats halfway and stores the
// stats it discarded in *before_reset.
void ReplayTrace(MemorySim& sim, uint64_t seed, uint32_t steps,
                 SimStats* before_reset) {
  TraceRng rng(seed);
  uint64_t seq = kTraceBase;
  for (uint32_t i = 0; i < steps; ++i) {
    if (i == steps / 2) {
      *before_reset = sim.stats();
      sim.ResetStats();
    }
    uint64_t size = 1 + rng.Below(200);
    bool write = rng.Coin();
    switch (rng.Below(12)) {
      case 0:
      case 1:  // sequential scan
        sim.Access(At(seq), size, write);
        seq += 1 + rng.Below(200);
        if (seq >= kTraceBase + kTraceRegion) seq = kTraceBase;
        break;
      case 2:  // uniform random
        sim.Access(At(kTraceBase + rng.Below(kTraceRegion)), size, write);
        break;
      case 3:
      case 4:  // hot set: 48 lines, 17 lines apart
        sim.Access(At(kTraceBase + rng.Below(48) * 17 * 64),
                   1 + size % 16, write);
        break;
      case 5:  // strided conflict demand
        sim.Access(At(kTraceBase + rng.Below(kConflictLines) * kConflictStride),
                   1 + size % 64, write);
        break;
      case 6: {  // prefetch burst along the conflict stride
        uint64_t n = 1 + rng.Below(40);
        uint64_t start = rng.Below(kConflictLines);
        for (uint64_t j = 0; j < n; ++j) {
          uint64_t line = (start + j) % kConflictLines;
          sim.Prefetch(At(kTraceBase + line * kConflictStride + 4096),
                       1 + j % 64);
        }
        break;
      }
      case 7: {  // prefetch straddling a page boundary
        uint64_t page = 1 + rng.Below(kTraceRegion / 8192 - 1);
        sim.Prefetch(At(kTraceBase + page * 8192 - rng.Below(100)), size);
        break;
      }
      case 8: {  // demand straddling a page boundary
        uint64_t page = 1 + rng.Below(kTraceRegion / 8192 - 1);
        sim.Access(At(kTraceBase + page * 8192 - rng.Below(100)), size,
                   write);
        break;
      }
      case 9: {  // prefetch, some work, then the demand
        uint64_t a = kTraceBase + rng.Below(kTraceRegion);
        sim.Prefetch(At(a), size);
        sim.Busy(static_cast<uint32_t>(rng.Below(300)));
        sim.Access(At(a), size, write);
        break;
      }
      case 10:
        sim.Busy(static_cast<uint32_t>(rng.Below(60)));
        break;
      default:
        sim.Branch(static_cast<uint32_t>(rng.Below(8)), rng.Below(3) != 0);
        break;
    }
  }
}

using StatFields = std::array<uint64_t, 13>;

StatFields Fields(const SimStats& s) {
  return {s.busy_cycles,       s.dcache_stall_cycles,
          s.dtlb_stall_cycles, s.other_stall_cycles,
          s.l1_hits,           s.l2_hits,
          s.full_misses,       s.prefetch_hidden,
          s.prefetch_partial,  s.tlb_misses,
          s.prefetches_issued, s.prefetch_evicted_before_use,
          s.branch_mispredicts};
}

SimConfig TraceConfig(int variant) {
  // 0: Table 2; 1: 8-entry DTLB, 4 KiB L1; 2 and 3: the same with two
  // miss handlers (saturated by the bursts) and a periodic flush.
  SimConfig cfg = variant % 2 == 0 ? SimConfig{} : SmallConfig();
  if (variant >= 2) {
    cfg.miss_handlers = 2;
    cfg.flush_period_cycles = 250000;
  }
  return cfg;
}

struct TraceGolden {
  int config;
  uint64_t seed;
  int phase;  // 0: stats discarded by ResetStats; 1: stats at the end
  StatFields fields;
};

// Captured from the linear-scan simulator (see above). Phase-1
// branch_mispredicts count from the ResetStats, like every other field.
const TraceGolden kTraceGoldens[] = {
    {0, 1, 0,
     {175309, 1193197, 66120, 2429, 3590, 863, 6698,
      993, 1254, 2204, 21819, 19169, 347}},
    {0, 1, 1,
     {159159, 1105494, 63570, 2352, 3687, 1341, 6137,
      946, 1049, 2119, 21224, 18815, 336}},
    {0, 2, 0,
     {168636, 1176768, 65070, 2338, 3690, 966, 6632,
      869, 1272, 2169, 20816, 18299, 334}},
    {0, 2, 1,
     {169785, 1113088, 66330, 2275, 3610, 1252, 6152,
      1049, 1020, 2211, 22185, 19682, 325}},
    {1, 1, 0,
     {175309, 1310837, 146520, 2429, 2174, 1468, 7509,
      934, 1313, 4884, 21819, 19408, 347}},
    {1, 1, 1,
     {159159, 1289372, 147840, 2352, 2228, 1521, 7409,
      817, 1185, 4928, 21224, 19061, 336}},
    {1, 2, 0,
     {168636, 1306533, 144720, 2338, 2300, 1436, 7541,
      854, 1298, 4824, 20816, 18520, 334}},
    {1, 2, 1,
     {169785, 1285734, 148680, 2275, 2185, 1449, 7352,
      950, 1147, 4956, 22185, 19928, 325}},
    {2, 1, 0,
     {175309, 2531098, 68880, 2429, 3129, 368, 7655,
      636, 1610, 2296, 21819, 18971, 347}},
    {2, 1, 1,
     {159159, 2479796, 65820, 2352, 3181, 449, 7519,
      548, 1463, 2194, 21224, 18607, 336}},
    {2, 2, 0,
     {168636, 2463643, 67290, 2338, 3230, 437, 7606,
      572, 1584, 2243, 20816, 18121, 334}},
    {2, 2, 1,
     {169785, 2523501, 68370, 2275, 3097, 436, 7456,
      595, 1499, 2279, 22185, 19438, 325}},
    {3, 1, 0,
     {175309, 2583757, 146850, 2429, 2148, 998, 8006,
      618, 1628, 4895, 21819, 19329, 347}},
    {3, 1, 1,
     {159159, 2544152, 148170, 2352, 2198, 1008, 7958,
      537, 1459, 4939, 21224, 18975, 336}},
    {3, 2, 0,
     {168636, 2527958, 144900, 2338, 2273, 959, 8048,
      571, 1578, 4830, 20816, 18432, 334}},
    {3, 2, 1,
     {169785, 2585266, 148860, 2275, 2162, 974, 7850,
      585, 1512, 4962, 22185, 19855, 325}},
};

TEST(MemorySimTraceGoldenTest, EveryStatMatchesGolden) {
  constexpr uint32_t kSteps = 20000;
  for (int config = 0; config < 4; ++config) {
    for (uint64_t seed : {1u, 2u}) {
      MemorySim sim(TraceConfig(config));
      SimStats phases[2];
      ReplayTrace(sim, seed, kSteps, &phases[0]);
      phases[1] = sim.stats();
      // The traces reach what they are meant to exercise.
      EXPECT_GT(phases[1].tlb_misses, 0u);
      EXPECT_GT(phases[1].prefetch_partial, 0u);
      EXPECT_GT(phases[1].prefetch_evicted_before_use, 0u);
      EXPECT_EQ(phases[1].TotalCycles(), sim.now());
      for (int phase = 0; phase < 2; ++phase) {
        StatFields actual = Fields(phases[phase]);
        const TraceGolden* golden = nullptr;
        for (const TraceGolden& g : kTraceGoldens) {
          if (g.config == config && g.seed == seed && g.phase == phase) {
            golden = &g;
          }
        }
        std::string row = "    {" + std::to_string(config) + ", " +
                          std::to_string(seed) + ", " +
                          std::to_string(phase) + ", {";
        for (size_t f = 0; f < actual.size(); ++f) {
          row += (f == 0 ? "" : ", ") + std::to_string(actual[f]);
        }
        row += "}},";
        if (golden == nullptr) {
          ADD_FAILURE() << "no golden row; actual:\n" << row;
          continue;
        }
        EXPECT_EQ(golden->fields, actual) << "actual:\n" << row;
      }
    }
  }
}

// --- differential: Tlb and SetAssocCache against a linear-scan LRU ---

// True LRU by linear scan over `ways` entries per set: the semantics of
// both structures. Keys are addr / unit; set = key % sets.
class ReferenceLru {
 public:
  ReferenceLru(uint64_t sets, uint32_t ways, uint64_t unit)
      : sets_(sets), ways_(ways), unit_(unit), e_(sets * ways) {}

  SetAssocCache::LineInfo* Lookup(uint64_t addr) {
    Way* w = Find(addr);
    if (w == nullptr) {
      ++misses;
      return nullptr;
    }
    ++hits;
    w->lru = ++clock_;
    return &w->info;
  }
  SetAssocCache::LineInfo* Insert(uint64_t addr) {
    if (Way* w = Find(addr)) {
      *w = Way{w->key, true, ++clock_, {}};
      return &w->info;
    }
    Way* set = &e_[(addr / unit_) % sets_ * ways_];
    Way* victim = set;  // the first invalid way, else the least recent
    for (uint32_t i = 0; i < ways_; ++i) {
      if (!set[i].valid) {
        victim = &set[i];
        break;
      }
      if (set[i].lru < victim->lru) victim = &set[i];
    }
    if (victim->valid && victim->info.prefetched && !victim->info.referenced) {
      ++evicted_before_use;
    }
    *victim = Way{addr / unit_, true, ++clock_, {}};
    return &victim->info;
  }
  void Invalidate(uint64_t addr) {
    if (Way* w = Find(addr)) w->valid = false;
  }
  void Flush() {
    for (Way& w : e_) w.valid = false;
  }
  void RebaseTime(uint64_t base) {
    for (Way& w : e_) {
      uint64_t& t = w.info.ready_time;
      if (w.valid) t = t > base ? t - base : 0;
    }
  }

  uint64_t hits = 0, misses = 0, evicted_before_use = 0;

 private:
  struct Way {
    uint64_t key = 0;
    bool valid = false;
    uint64_t lru = 0;
    SetAssocCache::LineInfo info;
  };
  Way* Find(uint64_t addr) {
    Way* set = &e_[(addr / unit_) % sets_ * ways_];
    for (uint32_t i = 0; i < ways_; ++i) {
      if (set[i].valid && set[i].key == addr / unit_) return &set[i];
    }
    return nullptr;
  }

  uint64_t sets_;
  uint32_t ways_;
  uint64_t unit_;
  uint64_t clock_ = 0;
  std::vector<Way> e_;
};

// Draws keys from a window that drifts through [0, 4 * entries), so the
// structures see hits, capacity misses and cold misses.
uint64_t DrawKey(TraceRng& rng, uint32_t entries, uint64_t step) {
  uint64_t span = 4 * uint64_t{entries};
  if (rng.Below(4) == 0) return rng.Below(span);
  uint64_t window = entries + entries / 2 + 1;
  return (step / 8 + rng.Below(window)) % span;
}

TEST(TlbDifferentialTest, MatchesLinearScanLru) {
  constexpr uint32_t kPage = 8192;
  for (uint32_t entries : {3u, 64u, 4096u}) {
    SCOPED_TRACE(entries);
    Tlb tlb(entries, kPage);
    ReferenceLru ref(1, entries, kPage);
    TraceRng rng(entries);
    for (uint64_t step = 0; step < 60000; ++step) {
      uint64_t addr = DrawKey(rng, entries, step) * kPage + rng.Below(kPage);
      uint64_t op = rng.Below(1000);
      if (op < 600) {
        bool hit = tlb.Lookup(addr);
        ASSERT_EQ(hit, ref.Lookup(addr) != nullptr) << step;
        if (!hit) {
          tlb.Insert(addr);
          ref.Insert(addr);
        }
      } else if (op < 997) {
        tlb.Insert(addr);  // resident or not
        ref.Insert(addr);
      } else if (op < 998) {
        tlb.Flush();
        ref.Flush();
      } else {
        tlb.ResetStats();
        ref.hits = ref.misses = 0;
      }
    }
    EXPECT_EQ(tlb.hits(), ref.hits);
    EXPECT_EQ(tlb.misses(), ref.misses);
  }
}

TEST(SetAssocCacheDifferentialTest, MatchesLinearScanLru) {
  constexpr uint32_t kLine = 64;
  struct Geometry {
    uint32_t sets, assoc;
  };
  // 3, 64 and 4096 lines: fully associative with a non-power-of-two
  // way count, 8 sets of 8 ways, 1024 sets of 4 ways.
  for (Geometry g : {Geometry{1, 3}, Geometry{8, 8}, Geometry{1024, 4}}) {
    uint32_t entries = g.sets * g.assoc;
    SCOPED_TRACE(entries);
    SetAssocCache cache(entries * kLine, g.assoc, kLine);
    ReferenceLru ref(g.sets, g.assoc, kLine);
    TraceRng rng(entries + 7);
    uint64_t now = 0;
    for (uint64_t step = 0; step < 60000; ++step) {
      uint64_t line = DrawKey(rng, entries, step) * kLine;
      uint64_t op = rng.Below(1000);
      now += rng.Below(40);
      if (op < 600) {
        SetAssocCache::LineInfo* got = cache.Lookup(line);
        SetAssocCache::LineInfo* want = ref.Lookup(line);
        ASSERT_EQ(got != nullptr, want != nullptr) << step;
        if (got == nullptr) {
          got = cache.Insert(line);
          want = ref.Insert(line);
        }
        ASSERT_EQ(got->ready_time, want->ready_time) << step;
        ASSERT_EQ(got->prefetched, want->prefetched) << step;
        ASSERT_EQ(got->referenced, want->referenced) << step;
        got->referenced = want->referenced = rng.Coin();
      } else if (op < 990) {
        // A fill, resident or not, as a prefetch or a demand.
        SetAssocCache::LineInfo* got = cache.Insert(line);
        SetAssocCache::LineInfo* want = ref.Insert(line);
        ASSERT_EQ(got->ready_time, want->ready_time) << step;
        ASSERT_FALSE(got->prefetched || got->referenced) << step;
        got->prefetched = want->prefetched = rng.Below(4) != 0;
        got->ready_time = want->ready_time = now + rng.Below(200);
      } else if (op < 995) {
        cache.Invalidate(line);
        ref.Invalidate(line);
      } else if (op < 997) {
        uint64_t base = rng.Below(now + 1);
        cache.RebaseTime(base);
        ref.RebaseTime(base);
        now -= base;
      } else if (op < 998) {
        cache.Flush();
        ref.Flush();
      } else {
        cache.ResetStats();
        ref.hits = ref.misses = ref.evicted_before_use = 0;
      }
    }
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.evicted_before_use(), ref.evicted_before_use);
    EXPECT_GT(ref.evicted_before_use, 0u);
  }
}

// --- configs the simulator cannot run ---

TEST(MemorySimDeathTest, RejectsZeroMissHandlers) {
  SimConfig cfg;
  cfg.miss_handlers = 0;
  EXPECT_DEATH(MemorySim sim(cfg), "miss_handlers");
}

TEST(MemorySimDeathTest, RejectsZeroDtlbEntries) {
  SimConfig cfg;
  cfg.dtlb_entries = 0;
  EXPECT_DEATH(MemorySim sim(cfg), "dtlb_entries");
}

TEST(MemorySimDeathTest, RejectsNonPowerOfTwoLineSize) {
  SimConfig cfg;
  cfg.line_size = 48;
  cfg.l1d_size = 48 * 4 * 256;
  cfg.l2_size = 48 * 8 * 2048;
  EXPECT_DEATH(MemorySim sim(cfg), "line_size");
}

TEST(MemorySimDeathTest, RejectsNonPowerOfTwoPageSize) {
  SimConfig cfg;
  cfg.page_size = 6000;
  EXPECT_DEATH(MemorySim sim(cfg), "page_size");
}

TEST(MemorySimDeathTest, RejectsPageSmallerThanLine) {
  SimConfig cfg;
  cfg.page_size = 32;
  EXPECT_DEATH(MemorySim sim(cfg), "page_size");
}

// --- memory model policies ---

TEST(MemoryModelTest, RealMemoryCompilesToNoOps) {
  RealMemory mm;
  int x = 5;
  mm.Busy(100);
  mm.Read(&x, sizeof(x));
  mm.Write(&x, sizeof(x));
  mm.Prefetch(&x, sizeof(x));
  mm.Branch(1, true);
  EXPECT_FALSE(RealMemory::kSimulated);
}

TEST(MemoryModelTest, SimMemoryForwards) {
  MemorySim sim(SmallConfig());
  SimMemory mm(&sim);
  auto buf = MakeAlignedBuffer<uint8_t>(64);
  mm.Busy(5);
  mm.Read(buf.get(), 8);
  EXPECT_EQ(sim.stats().busy_cycles, 5u);
  EXPECT_EQ(sim.stats().full_misses, 1u);
  EXPECT_TRUE(SimMemory::kSimulated);
}

}  // namespace
}  // namespace sim
}  // namespace hashjoin
