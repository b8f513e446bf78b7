// Tests for the extension features: chained-bucket contrast table,
// hybrid hash join, and software-pipelined aggregation.

#include <cstring>
#include <map>

#include "gtest/gtest.h"
#include "join/exec_policy.h"
#include "join/chained_kernels.h"
#include "join/hybrid.h"
#include "mem/memory_model.h"
#include "util/bitops.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

uint32_t KeyOf(const uint8_t* t) {
  uint32_t k;
  std::memcpy(&k, t, 4);
  return k;
}

// ---------- chained hash table ----------

TEST(ChainedHashTableTest, InsertAndProbe) {
  ChainedHashTable ht(101);
  std::vector<std::vector<uint8_t>> tuples;
  for (uint32_t k = 0; k < 1000; ++k) {
    tuples.push_back(std::vector<uint8_t>(16, 0));
    std::memcpy(tuples.back().data(), &k, 4);
    ht.Insert(HashKey32(k), tuples.back().data());
  }
  EXPECT_EQ(ht.num_tuples(), 1000u);
  EXPECT_EQ(ht.CountTuplesSlow(), 1000u);
  for (uint32_t k = 0; k < 1000; ++k) {
    int exact = 0;
    ht.Probe(HashKey32(k), [&](const uint8_t* t) {
      if (KeyOf(t) == k) ++exact;
    });
    ASSERT_EQ(exact, 1) << k;
  }
}

TEST(ChainedHashTableTest, DuplicatesChainInOneBucket) {
  ChainedHashTable ht(1);
  std::vector<uint8_t> t(16, 0);
  for (int i = 0; i < 50; ++i) ht.Insert(7, t.data());
  int found = 0;
  ht.Probe(7, [&](const uint8_t*) { ++found; });
  EXPECT_EQ(found, 50);
}

class ChainedProbeTest : public ::testing::TestWithParam<ChainedPrefetch> {};

TEST_P(ChainedProbeTest, JoinResultMatchesExpected) {
  WorkloadSpec spec;
  spec.num_build_tuples = 4000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.8;
  JoinWorkload w = GenerateJoinWorkload(spec);
  RealMemory mm;
  ChainedHashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildChained(mm, w.build, &ht);
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
  uint64_t n =
      ProbeChained(mm, w.probe, ht, spec.tuple_size, GetParam(), &out);
  EXPECT_EQ(n, w.expected_matches);
  EXPECT_EQ(out.num_tuples(), w.expected_matches);
  out.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    ASSERT_EQ(len, 2 * spec.tuple_size);
    ASSERT_EQ(KeyOf(t), KeyOf(t + spec.tuple_size));
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, ChainedProbeTest,
                         ::testing::Values(ChainedPrefetch::kNone,
                                           ChainedPrefetch::kNextCell),
                         [](const auto& info) {
                           return info.param == ChainedPrefetch::kNone
                                      ? "none"
                                      : "naive";
                         });

TEST(ChainedProbeTest, NaivePrefetchGainsAlmostNothingInSimulator) {
  // The §3 claim, asserted: within-visit prefetching of the next chain
  // cell saves at most a few percent.
  WorkloadSpec spec;
  spec.num_build_tuples = 20000;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);
  auto run = [&](ChainedPrefetch mode) {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    ChainedHashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
    BuildChained(mm, w.build, &ht);
    Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
    ProbeChained(mm, w.probe, ht, spec.tuple_size, mode, &out);
    return simulator.stats().TotalCycles();
  };
  uint64_t none = run(ChainedPrefetch::kNone);
  uint64_t naive = run(ChainedPrefetch::kNextCell);
  EXPECT_LT(none, naive * 110 / 100);  // within 10% of each other
  EXPECT_GT(none, naive * 90 / 100);
}

// ---------- hybrid hash join ----------

class HybridJoinTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(HybridJoinTest, EndToEndCountsMatch) {
  WorkloadSpec spec;
  spec.num_build_tuples = 20000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.75;
  JoinWorkload w = GenerateJoinWorkload(spec);

  GraceConfig config;
  config.memory_budget = 150 * 1024;
  config.join_scheme = GetParam();
  config.page_size = 2048;
  config.join_params.group_size = 8;
  config.join_params.prefetch_distance = 2;

  RealMemory mm;
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()), 2048);
  JoinResult r = HybridHashJoin(mm, w.build, w.probe, config, &out);
  EXPECT_EQ(r.output_tuples, w.expected_matches);
  EXPECT_EQ(out.num_tuples(), w.expected_matches);
  EXPECT_GE(r.num_partitions, 2u);
  out.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    ASSERT_EQ(len, 2 * spec.tuple_size);
    ASSERT_EQ(KeyOf(t), KeyOf(t + spec.tuple_size));
  });
}

TEST_P(HybridJoinTest, ResultAgreesWithGrace) {
  WorkloadSpec spec;
  spec.num_build_tuples = 8000;
  spec.tuple_size = 16;
  spec.matches_per_build = 1.5;
  JoinWorkload w = GenerateJoinWorkload(spec);
  GraceConfig config;
  config.memory_budget = 64 * 1024;
  config.join_scheme = GetParam();
  config.partition_scheme = GetParam();
  config.page_size = 2048;
  RealMemory mm;
  JoinResult hybrid = HybridHashJoin(mm, w.build, w.probe, config, nullptr);
  JoinResult grace = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
  EXPECT_EQ(hybrid.output_tuples, grace.output_tuples);
  EXPECT_EQ(hybrid.output_tuples, w.expected_matches);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, HybridJoinTest,
                         ::testing::Values(Scheme::kBaseline, Scheme::kSimple,
                                           Scheme::kGroup, Scheme::kSwp),
                         [](const auto& info) {
                           return SchemeName(info.param);
                         });

TEST(HybridPartitionCountTest, ClampsToTwoWhenEverythingFits) {
  GraceConfig config;
  config.memory_budget = 1ull << 30;  // whole build fits in memory
  // Hybrid still needs partition 0 plus at least one spilled partition.
  EXPECT_EQ(HybridPartitionCount(1000, 100 * 1000, config), 2u);
  // forced_num_partitions is honored, but also clamped.
  config.forced_num_partitions = 1;
  EXPECT_EQ(HybridPartitionCount(1000, 100 * 1000, config), 2u);
  config.forced_num_partitions = 9;
  EXPECT_EQ(HybridPartitionCount(1000, 100 * 1000, config), 9u);
}

TEST(HybridPartitionCountTest, MatchesBudgetSizingWhenSpilling) {
  GraceConfig config;
  config.memory_budget = 64 * 1024;
  uint32_t n = HybridPartitionCount(50000, 50000 * 20, config);
  EXPECT_EQ(n, ComputeNumPartitions(50000, 50000 * 20, config.memory_budget));
  EXPECT_GE(n, 2u);
}

TEST(HybridPartitionCountTest, SinglePartitionAllowedWhenEverythingFits) {
  // A recursive level whose whole input fits the grant may finish in
  // memory: allow_single_partition lifts the >= 2 clamp so nothing is
  // gratuitously spilled. When the input does NOT fit, the flag changes
  // nothing — sizing still rules.
  GraceConfig config;
  config.memory_budget = 1ull << 30;
  EXPECT_EQ(HybridPartitionCount(1000, 100 * 1000, config,
                                 /*allow_single_partition=*/true),
            1u);
  // The default (no flag) keeps the historical clamp.
  EXPECT_EQ(HybridPartitionCount(1000, 100 * 1000, config), 2u);
  config.memory_budget = 64 * 1024;
  EXPECT_EQ(HybridPartitionCount(50000, 50000 * 20, config,
                                 /*allow_single_partition=*/true),
            ComputeNumPartitions(50000, 50000 * 20, config.memory_budget));
}

TEST(HybridJoinTest, SinglePartitionJoinRunsFullyInMemory) {
  // config.hybrid_allow_single_partition + a budget that covers the
  // whole build: num_partitions == 1, every tuple routes through the
  // in-place partition 0, and the spilled-partition loops are empty —
  // with the exact same match output.
  WorkloadSpec spec;
  spec.num_build_tuples = 5000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  GraceConfig config;
  config.memory_budget = 16ull << 20;
  config.hybrid_allow_single_partition = true;
  config.page_size = 2048;
  RealMemory mm;
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()), 2048);
  JoinResult r = HybridHashJoin(mm, w.build, w.probe, config, &out);
  EXPECT_EQ(r.num_partitions, 1u);
  EXPECT_EQ(r.output_tuples, w.expected_matches);
  EXPECT_EQ(out.num_tuples(), w.expected_matches);

  // Same config without the flag: identical output through two
  // partitions — the flag is a memory/I/O decision, never a result one.
  config.hybrid_allow_single_partition = false;
  JoinResult spilled = HybridHashJoin(mm, w.build, w.probe, config, nullptr);
  EXPECT_EQ(spilled.num_partitions, 2u);
  EXPECT_EQ(spilled.output_tuples, r.output_tuples);
}

// The budget-forced clamp path end to end: a workload whose sizing alone
// would say "1 partition" must still produce correct results through the
// partition-0-in-place + spill structure.
TEST(HybridJoinTest, ClampedTinyWorkloadStillJoinsCorrectly) {
  WorkloadSpec spec;
  spec.num_build_tuples = 500;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  GraceConfig config;
  config.memory_budget = 1ull << 30;
  config.page_size = 2048;
  RealMemory mm;
  JoinResult r = HybridHashJoin(mm, w.build, w.probe, config, nullptr);
  EXPECT_EQ(r.num_partitions, 2u);
  EXPECT_EQ(r.output_tuples, w.expected_matches);
}

// Partition 0 never touches intermediate storage while every other
// partition spills: re-run the two passes structurally by checking that
// spilled partitions hold exactly the non-partition-0 tuples.
TEST(HybridJoinTest, SpilledPartitionsExcludePartitionZero) {
  WorkloadSpec spec;
  spec.num_build_tuples = 6000;
  spec.tuple_size = 20;
  spec.matches_per_build = 1.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  GraceConfig config;
  config.forced_num_partitions = 5;
  config.page_size = 2048;
  RealMemory mm;
  JoinResult r = HybridHashJoin(mm, w.build, w.probe, config, nullptr);
  EXPECT_EQ(r.num_partitions, 5u);
  EXPECT_EQ(r.output_tuples, w.expected_matches);
  // Cross-check the spill fraction: tuples with hash % 5 != 0 spill. The
  // join's own structure cannot be observed from outside, so recompute
  // the expected split and make sure it is non-degenerate — a workload
  // where partition 0 is empty (or everything lands there) would not
  // exercise the in-place path at all.
  uint64_t in_place = 0;
  w.build.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t) {
    uint32_t key;
    std::memcpy(&key, t, 4);
    if (HashKey32(key) % 5 == 0) ++in_place;
  });
  EXPECT_GT(in_place, 0u);
  EXPECT_LT(in_place, w.build.num_tuples());
}

// ---------- software-pipelined aggregation ----------

class AggregateSwpTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AggregateSwpTest, MatchesBaseline) {
  Relation facts(Schema({{"key", AttrType::kInt32, 4},
                         {"value", AttrType::kInt64, 8},
                         {"pad", AttrType::kFixedChar, 4}}));
  Rng rng(51);
  for (int i = 0; i < 20000; ++i) {
    uint8_t t[16] = {};
    uint32_t key = uint32_t(rng.NextBounded(3000));
    int64_t value = rng.NextInRange(-20, 20);
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    facts.Append(t, sizeof(t), HashKey32(key));
  }
  RealMemory mm;
  HashAggTable base(NextRelativelyPrime(3000, 31));
  KernelParams params;
  params.prefetch_distance = GetParam();
  AggregateRelation(mm, Scheme::kBaseline, facts, 4, &base, params);
  HashAggTable swp(NextRelativelyPrime(3000, 31));
  AggregateRelation(mm, Scheme::kSwp, facts, 4, &swp, params);
  ASSERT_EQ(swp.num_groups(), base.num_groups());
  base.ForEachGroup([&](const AggState& s) {
    const AggState* other = swp.Find(s.key);
    ASSERT_NE(other, nullptr) << s.key;
    EXPECT_EQ(other->count, s.count) << s.key;
    EXPECT_EQ(other->sum, s.sum) << s.key;
  });
}

INSTANTIATE_TEST_SUITE_P(Distances, AggregateSwpTest,
                         ::testing::Values(1, 2, 5, 16));

TEST(AggregateSwpTest, EmptyInput) {
  Relation rel(Schema::KeyPayload(16));
  RealMemory mm;
  HashAggTable agg(13);
  KernelParams params;
  params.prefetch_distance = 4;
  AggregateRelation(mm, Scheme::kSwp, rel, 4, &agg, params);
  EXPECT_EQ(agg.num_groups(), 0u);
}

}  // namespace
}  // namespace hashjoin
