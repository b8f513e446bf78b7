// Tests of the execution-policy dispatch layer (src/join/exec_policy.h)
// and the kernel-state hygiene invariants it relies on:
//  - Scheme <-> name round-trips through the single shared table; an
//    unknown name fails without touching the output.
//  - Two consecutive probe batches through every scheme produce
//    identical match counts (ResetForTuple leaves no state behind), and
//    the stage-2 claim / stage-3 release ledger balances to zero.
//  - The claimed-output ledger equals the simulator's own prefetch
//    count: the delta of prefetches_issued between prefetch_output
//    on/off runs is exactly the lines the kernel claims.
//  - AggregateRelation produces the same groups under every scheme.
//  - Every operation x scheme x D x input size issues the recorded
//    memory-model event stream (CountingMemory goldens).
//  - PartitionCombined runs the requested scheme beyond L2/4.

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "join/exec_policy.h"
#include "join/grace.h"
#include "mem/memory_model.h"
#include "simcache/memory_sim.h"
#include "util/bitops.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

// ---------- scheme table round-trips ----------

TEST(SchemeTableTest, NameParsesBackToEveryScheme) {
  for (Scheme s : {Scheme::kBaseline, Scheme::kSimple, Scheme::kGroup,
                   Scheme::kSwp, Scheme::kCoro}) {
    Scheme parsed;
    ASSERT_TRUE(ParseScheme(SchemeName(s), &parsed)) << SchemeName(s);
    EXPECT_EQ(parsed, s);
  }
}

TEST(SchemeTableTest, UnknownNameFailsWithoutTouchingOutput) {
  Scheme s = Scheme::kSwp;
  EXPECT_FALSE(ParseScheme("amac", &s));
  EXPECT_FALSE(ParseScheme("", &s));
  EXPECT_EQ(s, Scheme::kSwp);
}

TEST(SchemeTableTest, NameListNamesEveryScheme) {
  std::string list = SchemeNameList();
  for (Scheme s : {Scheme::kBaseline, Scheme::kSimple, Scheme::kGroup,
                   Scheme::kSwp, Scheme::kCoro}) {
    EXPECT_NE(list.find(SchemeName(s)), std::string::npos) << list;
  }
}

TEST(SchemeTableTest, AllSchemesAreAvailable) {
  for (Scheme s : AllSchemes()) {
    EXPECT_TRUE(SchemeAvailable(s)) << SchemeName(s);
  }
#if HASHJOIN_HAS_COROUTINES
  EXPECT_EQ(AllSchemes().size(), 5u);
#else
  EXPECT_EQ(AllSchemes().size(), 4u);
  EXPECT_FALSE(SchemeAvailable(Scheme::kCoro));
#endif
}

// ---------- two-batch state hygiene ----------

struct BatchResult {
  uint64_t matches1 = 0;
  uint64_t matches2 = 0;
  ProbeStats stats1;
  ProbeStats stats2;
};

// Probes two batches back to back under `scheme` against one shared
// hash table, in the simulator. State pools are per-pass, so the second
// batch catches any state a scheme forgot to reset at the end of the
// first (the kernel-state hygiene ResetForTuple guards).
BatchResult RunTwoBatches(Scheme scheme, const JoinWorkload& w,
                          const Relation& probe2, const HashTable& ht,
                          uint32_t tuple_size) {
  sim::MemorySim simulator{sim::SimConfig{}};
  SimMemory mm(&simulator);
  KernelParams params;
  params.group_size = 7;
  params.prefetch_distance = 3;
  BatchResult r;
  Relation out1(ConcatSchema(w.build.schema(), w.probe.schema()));
  r.matches1 = ProbePartition(mm, scheme, w.probe, ht, tuple_size, params,
                              &out1, &r.stats1);
  Relation out2(ConcatSchema(w.build.schema(), w.probe.schema()));
  r.matches2 = ProbePartition(mm, scheme, probe2, ht, tuple_size, params,
                              &out2, &r.stats2);
  return r;
}

TEST(TwoBatchRegressionTest, AllSchemesAgreeAndLedgerBalances) {
  WorkloadSpec spec;
  spec.num_build_tuples = 4000;
  spec.tuple_size = 24;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.7;
  JoinWorkload w = GenerateJoinWorkload(spec);
  // Second batch: skewed keys in the build range, so batch 2 has a
  // different match/miss mix than batch 1.
  Relation probe2 = GenerateSkewedRelation(5000, 24, 0.9, 2000, 71);

  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    BuildPartition(mm, Scheme::kBaseline, w.build, &ht, KernelParams{});
  }

  BatchResult base =
      RunTwoBatches(Scheme::kBaseline, w, probe2, ht, spec.tuple_size);
  EXPECT_EQ(base.matches1, w.expected_matches);
  BatchResult group;
  for (Scheme s : AllSchemes()) {
    BatchResult r = RunTwoBatches(s, w, probe2, ht, spec.tuple_size);
    EXPECT_EQ(r.matches1, base.matches1) << SchemeName(s);
    EXPECT_EQ(r.matches2, base.matches2) << SchemeName(s);
    EXPECT_EQ(r.stats1.output_tuples, r.matches1) << SchemeName(s);
    EXPECT_EQ(r.stats2.output_tuples, r.matches2) << SchemeName(s);
    // Every stage-2 claim must be released by its stage 3 — across both
    // batches and every interleaving.
    EXPECT_EQ(r.stats1.leaked_out_bytes, 0u) << SchemeName(s);
    EXPECT_EQ(r.stats2.leaked_out_bytes, 0u) << SchemeName(s);
    if (s == Scheme::kGroup) group = r;
    // All prefetching schemes claim the same output *bytes* per tuple;
    // the line counts differ only where a claim straddles a line
    // boundary, which depends on the output offset at claim time and
    // hence the interleaving. Each tuple contributes at most one extra
    // straddled line, so the schemes' totals agree to within the number
    // of output tuples in the batch.
    if (s == Scheme::kSwp || s == Scheme::kCoro) {
      EXPECT_NEAR(static_cast<double>(r.stats1.claimed_prefetch_lines),
                  static_cast<double>(group.stats1.claimed_prefetch_lines),
                  static_cast<double>(r.matches1))
          << SchemeName(s);
      EXPECT_NEAR(static_cast<double>(r.stats2.claimed_prefetch_lines),
                  static_cast<double>(group.stats2.claimed_prefetch_lines),
                  static_cast<double>(r.matches2))
          << SchemeName(s);
      EXPECT_GT(r.stats1.claimed_prefetch_lines, 0u) << SchemeName(s);
    }
    // Simple prefetching (§7.1) only prefetches input pages and bucket
    // headers — it never claims output-tail lines.
    if (s == Scheme::kBaseline || s == Scheme::kSimple) {
      EXPECT_EQ(r.stats1.claimed_prefetch_lines, 0u) << SchemeName(s);
    }
  }
  // Baseline never prefetches, so it claims nothing; the prefetching
  // schemes must have claimed real output lines on a matching workload.
  EXPECT_EQ(base.stats1.claimed_prefetch_lines, 0u);
  EXPECT_GT(group.stats1.claimed_prefetch_lines, 0u);
}

// ---------- claimed-ledger vs. simulator crosscheck ----------

TEST(ClaimedLedgerCrosscheckTest, LedgerEqualsSimPrefetchDelta) {
  WorkloadSpec spec;
  spec.num_build_tuples = 3000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    BuildPartition(mm, Scheme::kBaseline, w.build, &ht, KernelParams{});
  }

  // One probe pass under `scheme`, returning the simulator's prefetch
  // count and the kernel's claimed-lines ledger. With prefetch_output
  // off, the only dropped prefetches are the output-tail ones — all
  // other prefetch targets live in the shared hash table, at identical
  // addresses in both runs.
  auto probe_run = [&](Scheme scheme, bool prefetch_output) {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    KernelParams params;
    params.group_size = 11;
    params.prefetch_distance = 2;
    params.prefetch_output = prefetch_output;
    Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
    ProbeStats stats;
    uint64_t n = ProbePartition(mm, scheme, w.probe, ht, spec.tuple_size,
                                params, &out, &stats);
    EXPECT_EQ(n, w.expected_matches) << SchemeName(scheme);
    return std::pair<uint64_t, uint64_t>(
        simulator.stats().prefetches_issued, stats.claimed_prefetch_lines);
  };

  for (Scheme s : AllSchemes()) {
    if (s == Scheme::kBaseline) continue;  // never prefetches
    auto [issued_on, claimed_on] = probe_run(s, true);
    auto [issued_off, claimed_off] = probe_run(s, false);
    EXPECT_EQ(claimed_off, 0u) << SchemeName(s);
    EXPECT_EQ(issued_on - issued_off, claimed_on) << SchemeName(s);
    // Simple prefetching never touches the output tail (§7.1), so its
    // ledger is legitimately zero; the stage-2 schemes must claim.
    if (s != Scheme::kSimple) {
      EXPECT_GT(claimed_on, 0u) << SchemeName(s);
    }
  }
}

// ---------- aggregate dispatch parity ----------

TEST(AggregatePolicyTest, AllSchemesProduceTheSameGroups) {
  Relation facts(Schema({{"key", AttrType::kInt32, 4},
                         {"value", AttrType::kInt64, 8},
                         {"pad", AttrType::kFixedChar, 8}}));
  Rng rng(11);
  const uint64_t kGroups = 700;
  std::map<uint32_t, int64_t> expected_sum;
  for (uint64_t i = 0; i < 50'000; ++i) {
    uint8_t t[20] = {};
    uint32_t key = uint32_t(rng.NextBounded(kGroups));
    int64_t value = int64_t(rng.NextBounded(100));
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    facts.Append(t, sizeof(t), HashKey32(key));
    expected_sum[key] += value;
  }

  RealMemory mm;
  KernelParams params;
  params.group_size = 9;
  params.prefetch_distance = 4;
  for (Scheme s : AllSchemes()) {
    HashAggTable agg(NextRelativelyPrime(kGroups, 31));
    AggregateRelation(mm, s, facts, 4, &agg, params);
    EXPECT_EQ(agg.num_groups(), expected_sum.size()) << SchemeName(s);
  }
}

// ---------- event-stream goldens ----------

// Memory model that records the kernels' event stream instead of timing
// it: the busy-cycle sum, one count per event kind, and an FNV-1a hash
// of the ordered (kind, size-or-cycles, branch site, outcome) stream.
// Addresses are left out — heap layout varies between runs — so two
// runs hash equal exactly when they issue the same events in the same
// order.
class CountingMemory {
 public:
  static constexpr bool kSimulated = false;

  void Busy(uint32_t cycles) {
    busy += cycles;
    Mix(0, cycles, 0, false);
  }
  void Read(const void*, size_t n) {
    ++reads;
    Mix(1, n, 0, false);
  }
  void Write(const void*, size_t n) {
    ++writes;
    Mix(2, n, 0, false);
  }
  void Prefetch(const void*, size_t n = 1) {
    ++prefetches;
    Mix(3, n, 0, false);
  }
  void Branch(uint32_t site, bool taken) {
    ++branches;
    if (taken) ++taken_by_site[site];
    Mix(4, 0, site, taken);
  }
  const sim::SimConfig& config() const {
    static const sim::SimConfig kDefault{};
    return kDefault;
  }

  uint64_t busy = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t prefetches = 0;
  uint64_t branches = 0;
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::map<uint32_t, uint64_t> taken_by_site;

 private:
  void Mix(uint8_t kind, uint64_t amount, uint32_t site, bool taken) {
    auto byte = [&](uint8_t b) {
      hash ^= b;
      hash *= 0x100000001b3ULL;  // FNV-1a 64-bit prime
    };
    byte(kind);
    for (int i = 0; i < 8; ++i) byte(uint8_t(amount >> (8 * i)));
    for (int i = 0; i < 4; ++i) byte(uint8_t(site >> (8 * i)));
    byte(taken ? 1 : 0);
  }
};

// Duplicate-key input shared by every operation: 40 distinct keys, so
// build buckets collide inside a group / pipeline window, probe buckets
// overflow the candidate buffer, and partition pages fill while copies
// are still in flight.
Relation DupKeyRelation(uint32_t n) {
  Relation rel(Schema({{"key", AttrType::kInt32, 4},
                       {"value", AttrType::kInt64, 8},
                       {"pad", AttrType::kFixedChar, 12}}));
  Rng rng(29);
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t t[24] = {};
    uint32_t key = uint32_t(rng.NextBounded(40));
    int64_t value = int64_t(rng.NextBounded(1000));
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    rel.Append(t, sizeof(t), HashKey32(key));
  }
  return rel;
}

constexpr uint32_t kGoldenPartitions = 3;
constexpr uint32_t kGoldenSinkPage = 512;

enum class GoldenOp { kProbe, kBuild, kPartition, kAggregate };

const char* GoldenOpName(GoldenOp op) {
  switch (op) {
    case GoldenOp::kProbe:
      return "probe";
    case GoldenOp::kBuild:
      return "build";
    case GoldenOp::kPartition:
      return "partition";
    case GoldenOp::kAggregate:
      return "aggregate";
  }
  return "?";
}

// Runs one operation over `input` under `scheme` with G = 5 and the given
// D, recording its event stream.
CountingMemory RunCounted(GoldenOp op, Scheme scheme, uint32_t d,
                          const Relation& input, const HashTable& probe_ht) {
  CountingMemory mm;
  KernelParams params;
  params.group_size = 5;
  params.prefetch_distance = d;
  switch (op) {
    case GoldenOp::kProbe: {
      Relation out(ConcatSchema(input.schema(), input.schema()));
      ProbePartition(mm, scheme, input, probe_ht, 24, params, &out);
      break;
    }
    case GoldenOp::kBuild: {
      HashTable ht(ChooseBucketCount(1000, 31));
      BuildPartition(mm, scheme, input, &ht, params);
      break;
    }
    case GoldenOp::kPartition: {
      std::vector<Relation> parts;
      for (uint32_t p = 0; p < kGoldenPartitions; ++p) {
        parts.emplace_back(input.schema(), kGoldenSinkPage);
      }
      PartitionSinkSet sinks(&parts, kGoldenSinkPage);
      PartitionRelation(mm, scheme, input, &sinks, kGoldenPartitions,
                        params);
      break;
    }
    case GoldenOp::kAggregate: {
      HashAggTable agg(NextRelativelyPrime(64, 31));
      AggregateRelation(mm, scheme, input, 4, &agg, params);
      break;
    }
  }
  return mm;
}

struct EventRow {
  const char* op;
  const char* scheme;
  uint32_t d;
  uint32_t n;
  uint64_t busy, reads, writes, prefetches, branches, hash;
};

// Captured from the per-operation hand-written loops the generic drivers
// replaced. Every row is that code's stream except build and aggregate
// under swp, which now charge the stage-0 overhead only while issuing
// (the probe/partition rule) instead of on every drain iteration too:
// their busy sums drop by (2D+1)*13 - 13 cycles on empty input and by
// (2D-1)*13 otherwise, and their hashes move with them.
constexpr EventRow kEventGoldens[] = {
    {"probe", "baseline", 1, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"probe", "baseline", 4, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"probe", "simple", 1, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"probe", "simple", 4, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"probe", "group", 1, 0, 5, 0, 0, 0, 0, 13707987983870104334ULL},
    {"probe", "group", 4, 0, 5, 0, 0, 0, 0, 13707987983870104334ULL},
    {"probe", "swp", 1, 0, 13, 0, 0, 0, 0, 4517597093704232182ULL},
    {"probe", "swp", 4, 0, 13, 0, 0, 0, 0, 4517597093704232182ULL},
    {"probe", "coro", 1, 0, 45, 0, 0, 0, 0, 5230823762815563346ULL},
    {"probe", "coro", 4, 0, 45, 0, 0, 0, 0, 5230823762815563346ULL},
    {"build", "baseline", 1, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"build", "baseline", 4, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"build", "simple", 1, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"build", "simple", 4, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"build", "group", 1, 0, 5, 0, 0, 0, 0, 13707987983870104334ULL},
    {"build", "group", 4, 0, 5, 0, 0, 0, 0, 13707987983870104334ULL},
    {"build", "swp", 1, 0, 13, 0, 0, 0, 0, 4517597093704232182ULL},
    {"build", "swp", 4, 0, 13, 0, 0, 0, 0, 4517597093704232182ULL},
    {"build", "coro", 1, 0, 45, 0, 0, 0, 0, 5230823762815563346ULL},
    {"build", "coro", 4, 0, 45, 0, 0, 0, 0, 5230823762815563346ULL},
    {"partition", "baseline", 1, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"partition", "baseline", 4, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"partition", "simple", 1, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"partition", "simple", 4, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"partition", "group", 1, 0, 5, 0, 0, 0, 0, 13707987983870104334ULL},
    {"partition", "group", 4, 0, 5, 0, 0, 0, 0, 13707987983870104334ULL},
    {"partition", "swp", 1, 0, 13, 0, 0, 0, 0, 4517597093704232182ULL},
    {"partition", "swp", 4, 0, 13, 0, 0, 0, 0, 4517597093704232182ULL},
    {"partition", "coro", 1, 0, 45, 0, 0, 0, 0, 5230823762815563346ULL},
    {"partition", "coro", 4, 0, 45, 0, 0, 0, 0, 5230823762815563346ULL},
    {"aggregate", "baseline", 1, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"aggregate", "baseline", 4, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"aggregate", "simple", 1, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"aggregate", "simple", 4, 0, 0, 0, 0, 0, 0, 14695981039346656037ULL},
    {"aggregate", "group", 1, 0, 5, 0, 0, 0, 0, 13707987983870104334ULL},
    {"aggregate", "group", 4, 0, 5, 0, 0, 0, 0, 13707987983870104334ULL},
    {"aggregate", "swp", 1, 0, 13, 0, 0, 0, 0, 4517597093704232182ULL},
    {"aggregate", "swp", 4, 0, 13, 0, 0, 0, 0, 4517597093704232182ULL},
    {"aggregate", "coro", 1, 0, 45, 0, 0, 0, 0, 5230823762815563346ULL},
    {"aggregate", "coro", 4, 0, 45, 0, 0, 0, 0, 5230823762815563346ULL},
    {"probe", "baseline", 1, 1, 2204, 64, 30, 0, 62, 10871723125594370302ULL},
    {"probe", "baseline", 4, 1, 2204, 64, 30, 0, 62, 10871723125594370302ULL},
    {"probe", "simple", 1, 1, 2204, 64, 30, 2, 62, 10455605372601412390ULL},
    {"probe", "simple", 4, 1, 2204, 64, 30, 2, 62, 10455605372601412390ULL},
    {"probe", "group", 1, 1, 2229, 64, 30, 11, 62, 6431051734567676702ULL},
    {"probe", "group", 4, 1, 2229, 64, 30, 11, 62, 6431051734567676702ULL},
    {"probe", "swp", 1, 1, 2269, 64, 30, 11, 62, 14869336043888997558ULL},
    {"probe", "swp", 4, 1, 2269, 64, 30, 11, 62, 14869336043888997558ULL},
    {"probe", "coro", 1, 1, 2276, 64, 30, 11, 62, 4353017400834283961ULL},
    {"probe", "coro", 4, 1, 2276, 64, 30, 11, 62, 4353017400834283961ULL},
    {"build", "baseline", 1, 1, 72, 2, 1, 0, 1, 17133471168805569755ULL},
    {"build", "baseline", 4, 1, 72, 2, 1, 0, 1, 17133471168805569755ULL},
    {"build", "simple", 1, 1, 72, 2, 1, 2, 1, 3760802623035594403ULL},
    {"build", "simple", 4, 1, 72, 2, 1, 2, 1, 3760802623035594403ULL},
    {"build", "group", 1, 1, 92, 2, 1, 2, 2, 12001319868840440277ULL},
    {"build", "group", 4, 1, 92, 2, 1, 2, 2, 12001319868840440277ULL},
    {"build", "swp", 1, 1, 124, 2, 1, 2, 2, 12833896098373148629ULL},
    {"build", "swp", 4, 1, 124, 2, 1, 2, 2, 12833896098373148629ULL},
    {"build", "coro", 1, 1, 135, 2, 1, 2, 2, 9594410198932677266ULL},
    {"build", "coro", 4, 1, 135, 2, 1, 2, 2, 9594410198932677266ULL},
    {"partition", "baseline", 1, 1, 104, 4, 3, 0, 1, 5935047626177725906ULL},
    {"partition", "baseline", 4, 1, 104, 4, 3, 0, 1, 5935047626177725906ULL},
    {"partition", "simple", 1, 1, 104, 4, 3, 2, 1, 617095982144159650ULL},
    {"partition", "simple", 4, 1, 104, 4, 3, 2, 1, 617095982144159650ULL},
    {"partition", "group", 1, 1, 124, 4, 3, 4, 1, 16790377083691910634ULL},
    {"partition", "group", 4, 1, 124, 4, 3, 4, 1, 16790377083691910634ULL},
    {"partition", "swp", 1, 1, 156, 4, 3, 4, 1, 2753289250616572810ULL},
    {"partition", "swp", 4, 1, 156, 4, 3, 4, 1, 2753289250616572810ULL},
    {"partition", "coro", 1, 1, 167, 4, 3, 4, 1, 13368832791421596137ULL},
    {"partition", "coro", 4, 1, 167, 4, 3, 4, 1, 13368832791421596137ULL},
    {"aggregate", "baseline", 1, 1, 124, 5, 2, 0, 0, 14939846948149073892ULL},
    {"aggregate", "baseline", 4, 1, 124, 5, 2, 0, 0, 14939846948149073892ULL},
    {"aggregate", "simple", 1, 1, 124, 5, 2, 2, 0, 11868772710641438572ULL},
    {"aggregate", "simple", 4, 1, 124, 5, 2, 2, 0, 11868772710641438572ULL},
    {"aggregate", "group", 1, 1, 144, 5, 2, 3, 0, 14794530576447152227ULL},
    {"aggregate", "group", 4, 1, 144, 5, 2, 3, 0, 14794530576447152227ULL},
    {"aggregate", "swp", 1, 1, 176, 5, 2, 3, 0, 2277592741744797875ULL},
    {"aggregate", "swp", 4, 1, 176, 5, 2, 3, 0, 2277592741744797875ULL},
    {"aggregate", "coro", 1, 1, 187, 5, 2, 3, 0, 11989470722086764512ULL},
    {"aggregate", "coro", 4, 1, 187, 5, 2, 3, 0, 11989470722086764512ULL},
    {"probe", "baseline", 1, 1000, 2003848, 56040, 26020, 0, 57126, 2461140497345937353ULL},
    {"probe", "baseline", 4, 1000, 2003848, 56040, 26020, 0, 57126, 2461140497345937353ULL},
    {"probe", "simple", 1, 1000, 2003848, 56040, 26020, 1004, 57126, 1664125639641708033ULL},
    {"probe", "simple", 4, 1000, 2003848, 56040, 26020, 1004, 57126, 1664125639641708033ULL},
    {"probe", "group", 1, 1000, 2023853, 56040, 26020, 9945, 57126, 12449179322948345563ULL},
    {"probe", "group", 4, 1000, 2023853, 56040, 26020, 9945, 57126, 12449179322948345563ULL},
    {"probe", "swp", 1, 1000, 2055861, 56040, 26020, 9945, 57126, 17634076454892592059ULL},
    {"probe", "swp", 4, 1000, 2055861, 56040, 26020, 9945, 57126, 7006575295737864251ULL},
    {"probe", "coro", 1, 1000, 2030893, 56040, 26020, 9945, 57126, 1031786725918300023ULL},
    {"probe", "coro", 4, 1000, 2030893, 56040, 26020, 9945, 57126, 1031786725918300023ULL},
    {"build", "baseline", 1, 1000, 90688, 2115, 2077, 0, 1000, 13117083090894842002ULL},
    {"build", "baseline", 4, 1000, 90688, 2115, 2077, 0, 1000, 13117083090894842002ULL},
    {"build", "simple", 1, 1000, 90688, 2115, 2077, 1004, 1000, 13227304135419646402ULL},
    {"build", "simple", 4, 1000, 90688, 2115, 2077, 1004, 1000, 13227304135419646402ULL},
    {"build", "group", 1, 1000, 107118, 2172, 2077, 1909, 2000, 3307524829007014255ULL},
    {"build", "group", 4, 1000, 107118, 2172, 2077, 1909, 2000, 3307524829007014255ULL},
    {"build", "swp", 1, 1000, 130691, 2145, 2077, 1936, 2000, 14489403087032228553ULL},
    {"build", "swp", 4, 1000, 133199, 2221, 2077, 1860, 2000, 3402193941752242485ULL},
    {"build", "coro", 1, 1000, 110676, 2182, 2077, 1966, 2067, 17109903131738307770ULL},
    {"build", "coro", 4, 1000, 110676, 2182, 2077, 1966, 2067, 17109903131738307770ULL},
    {"partition", "baseline", 1, 1000, 105560, 4065, 3065, 0, 1065, 8195258392454241536ULL},
    {"partition", "baseline", 4, 1000, 105560, 4065, 3065, 0, 1065, 8195258392454241536ULL},
    {"partition", "simple", 1, 1000, 105560, 4065, 3065, 1004, 1065, 12969700996960365760ULL},
    {"partition", "simple", 4, 1000, 105560, 4065, 3065, 1004, 1065, 12969700996960365760ULL},
    {"partition", "group", 1, 1000, 122316, 4168, 3065, 2798, 1168, 11967442675011090771ULL},
    {"partition", "group", 4, 1000, 122316, 4168, 3065, 2798, 1168, 11967442675011090771ULL},
    {"partition", "swp", 1, 1000, 145048, 4084, 3065, 2966, 1084, 11064223333431704927ULL},
    {"partition", "swp", 4, 1000, 146973, 4161, 3065, 2812, 1161, 12939981892379792615ULL},
    {"partition", "coro", 1, 1000, 124529, 4109, 3065, 3004, 1109, 5619712384282916007ULL},
    {"partition", "coro", 4, 1000, 124529, 4109, 3065, 3004, 1109, 5619712384282916007ULL},
    {"aggregate", "baseline", 1, 1000, 116512, 6204, 1040, 0, 0, 8776322207520896993ULL},
    {"aggregate", "baseline", 4, 1000, 116512, 6204, 1040, 0, 0, 8776322207520896993ULL},
    {"aggregate", "simple", 1, 1000, 116512, 6204, 1040, 1004, 0, 1651035528604368509ULL},
    {"aggregate", "simple", 4, 1000, 116512, 6204, 1040, 1004, 0, 1651035528604368509ULL},
    {"aggregate", "group", 1, 1000, 131517, 6204, 1040, 2004, 0, 12317846131047371378ULL},
    {"aggregate", "group", 4, 1000, 131517, 6204, 1040, 2004, 0, 12317846131047371378ULL},
    {"aggregate", "swp", 1, 1000, 155525, 6204, 1040, 2004, 0, 14330391720720968202ULL},
    {"aggregate", "swp", 4, 1000, 155525, 6204, 1040, 2004, 0, 7765836722515011466ULL},
    {"aggregate", "coro", 1, 1000, 134557, 6204, 1040, 2004, 0, 5717127414850625090ULL},
    {"aggregate", "coro", 4, 1000, 134557, 6204, 1040, 2004, 0, 5717127414850625090ULL},
};

TEST(EventStreamGoldenTest, EveryOpSchemeDistanceAndSizeMatchesGolden) {
  const Relation table_input = DupKeyRelation(1000);
  HashTable probe_ht(ChooseBucketCount(1000, 31));
  {
    RealMemory mm;
    BuildPartition(mm, Scheme::kBaseline, table_input, &probe_ht,
                   KernelParams{});
  }
  for (uint32_t n : {0u, 1u, 1000u}) {
    const Relation input = DupKeyRelation(n);
    for (GoldenOp op : {GoldenOp::kProbe, GoldenOp::kBuild,
                        GoldenOp::kPartition, GoldenOp::kAggregate}) {
      uint64_t serial_full_pages = 0;
      for (Scheme s : AllSchemes()) {
        for (uint32_t d : {1u, 4u}) {
          CountingMemory mm = RunCounted(op, s, d, input, probe_ht);
          // The input must exercise the conflict protocols: busy build
          // buckets, and partition pages found full while copies into
          // them are in flight (each such tuple meets the full page one
          // more time than the serial schemes do).
          const bool interleaved =
              s != Scheme::kBaseline && s != Scheme::kSimple;
          if (op == GoldenOp::kBuild && n == 1000 && interleaved) {
            EXPECT_GT(mm.taken_by_site[kBranchBucketBusy], 0u)
                << SchemeName(s);
          }
          if (op == GoldenOp::kPartition && n == 1000) {
            if (s == Scheme::kBaseline) {
              serial_full_pages = mm.taken_by_site[kBranchBufferFull];
            } else if (interleaved) {
              EXPECT_GT(mm.taken_by_site[kBranchBufferFull],
                        serial_full_pages)
                  << SchemeName(s) << " d=" << d;
            }
          }
          const EventRow* row = nullptr;
          for (const EventRow& r : kEventGoldens) {
            if (std::string(r.op) == GoldenOpName(op) &&
                std::string(r.scheme) == SchemeName(s) && r.d == d &&
                r.n == n) {
              row = &r;
            }
          }
          const std::string actual =
              std::string("    {\"") + GoldenOpName(op) + "\", \"" +
              SchemeName(s) + "\", " + std::to_string(d) + ", " +
              std::to_string(n) + ", " + std::to_string(mm.busy) + ", " +
              std::to_string(mm.reads) + ", " + std::to_string(mm.writes) +
              ", " + std::to_string(mm.prefetches) + ", " +
              std::to_string(mm.branches) + ", " + std::to_string(mm.hash) +
              "ULL},";
          if (row == nullptr) {
            ADD_FAILURE() << "no golden row; actual:\n" << actual;
            continue;
          }
          EXPECT_EQ(row->busy, mm.busy) << actual;
          EXPECT_EQ(row->reads, mm.reads) << actual;
          EXPECT_EQ(row->writes, mm.writes) << actual;
          EXPECT_EQ(row->prefetches, mm.prefetches) << actual;
          EXPECT_EQ(row->branches, mm.branches) << actual;
          EXPECT_EQ(row->hash, mm.hash) << actual;
        }
      }
    }
  }
}

// SPP charges its code-0 slot overhead only while issuing: an empty
// input costs one slot (the issue that finds the input exhausted) and
// the drain adds nothing, so a short input costs the same at every D.
TEST(EventStreamGoldenTest, SwpDrainChargesNoStageZeroOverhead) {
  const Relation table_input = DupKeyRelation(1000);
  HashTable probe_ht(ChooseBucketCount(1000, 31));
  {
    RealMemory mm;
    BuildPartition(mm, Scheme::kBaseline, table_input, &probe_ht,
                   KernelParams{});
  }
  const Relation empty = DupKeyRelation(0);
  const Relation one = DupKeyRelation(1);
  const uint64_t slot = sim::SimConfig{}.cost_stage_overhead_spp;
  for (GoldenOp op : {GoldenOp::kProbe, GoldenOp::kBuild,
                      GoldenOp::kPartition, GoldenOp::kAggregate}) {
    for (uint32_t d : {1u, 4u}) {
      EXPECT_EQ(RunCounted(op, Scheme::kSwp, d, empty, probe_ht).busy, slot)
          << GoldenOpName(op) << " d=" << d;
    }
    EXPECT_EQ(RunCounted(op, Scheme::kSwp, 1, one, probe_ht).busy,
              RunCounted(op, Scheme::kSwp, 4, one, probe_ht).busy)
        << GoldenOpName(op);
  }
}

// ---------- combined partitioning ----------

// Beyond L2/4 the combined scheme runs the requested large_scheme — for
// every scheme, baseline included — so its event stream equals a plain
// PartitionRelation under that scheme, and baseline prefetches nothing.
TEST(PartitionCombinedTest, RunsLargeSchemeBeyondQuarterL2) {
  const Relation input = DupKeyRelation(1000);
  // 3 sinks of 512-byte pages: a 1728-byte working set, beyond 1024/4.
  const uint32_t l2_bytes = 1024;
  auto run = [&](Scheme scheme, bool combined) {
    CountingMemory mm;
    KernelParams params;
    params.group_size = 5;
    params.prefetch_distance = 2;
    std::vector<Relation> parts;
    for (uint32_t p = 0; p < kGoldenPartitions; ++p) {
      parts.emplace_back(input.schema(), kGoldenSinkPage);
    }
    PartitionSinkSet sinks(&parts, kGoldenSinkPage);
    if (combined) {
      PartitionCombined(mm, input, &sinks, kGoldenPartitions, params,
                        l2_bytes, scheme);
    } else {
      PartitionRelation(mm, scheme, input, &sinks, kGoldenPartitions,
                        params);
    }
    return mm;
  };
  EXPECT_EQ(run(Scheme::kBaseline, /*combined=*/true).prefetches, 0u);
  for (Scheme s : AllSchemes()) {
    CountingMemory combined = run(s, true);
    CountingMemory plain = run(s, false);
    EXPECT_EQ(combined.hash, plain.hash) << SchemeName(s);
    EXPECT_EQ(combined.prefetches, plain.prefetches) << SchemeName(s);
  }
}

// ---------- coroutine pipeline specifics ----------

#if HASHJOIN_HAS_COROUTINES

TEST(CoroPipelineTest, OutputOrderMatchesSerialProbe) {
  WorkloadSpec spec;
  spec.num_build_tuples = 2000;
  spec.tuple_size = 16;
  spec.matches_per_build = 1.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  RealMemory mm;
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildPartition(mm, Scheme::kCoro, w.build, &ht, KernelParams{});
  Relation out_serial(ConcatSchema(w.build.schema(), w.probe.schema()));
  Relation out_coro(ConcatSchema(w.build.schema(), w.probe.schema()));
  KernelParams params;
  uint64_t serial = ProbePartition(mm, Scheme::kBaseline, w.probe, ht,
                                   spec.tuple_size, params, &out_serial);
  KernelParams coro_params;
  coro_params.group_size = 5;
  uint64_t coro = ProbePartition(mm, Scheme::kCoro, w.probe, ht,
                                 spec.tuple_size, coro_params, &out_coro);
  EXPECT_EQ(coro, serial);
  // Round-robin scheduling preserves input order, so the materialized
  // outputs are byte-identical, not merely equal in count.
  ASSERT_EQ(out_coro.num_tuples(), out_serial.num_tuples());
  std::vector<std::vector<uint8_t>> a, b;
  out_serial.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    a.emplace_back(t, t + len);
  });
  out_coro.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    b.emplace_back(t, t + len);
  });
  EXPECT_EQ(a, b);
}

TEST(CoroPipelineTest, ChargesCoroOverheadPerResume) {
  // Every chain resume is one scheduler step: the simulated busy cycles
  // must include cost_stage_overhead_coro for each, making the policy's
  // overhead observable to the cost model.
  sim::SimConfig cfg;
  sim::MemorySim simulator(cfg);
  SimMemory mm(&simulator);
  uint64_t resumes = 0;
  RunCoroPipeline(mm, 4, [&](uint32_t) -> KernelCoro {
    return [](uint64_t* count) -> KernelCoro {
      for (int i = 0; i < 3; ++i) {
        ++*count;
        co_await KernelCoro::NextStage{};
      }
      ++*count;
    }(&resumes);
  });
  EXPECT_EQ(resumes, 4u * 4u);
  // Each of the 4 chains resumes 4 times (3 suspensions + final run)
  // plus the final done-detection sweep costs nothing extra.
  EXPECT_GE(simulator.stats().busy_cycles,
            16u * cfg.cost_stage_overhead_coro);
}

#endif  // HASHJOIN_HAS_COROUTINES

}  // namespace
}  // namespace hashjoin
