#include <cstring>
#include <map>

#include "gtest/gtest.h"
#include "join/exec_policy.h"
#include "mem/memory_model.h"
#include "util/bitops.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

// Fact relation of (key, value, pad) rows with the given key range.
Relation MakeFacts(uint64_t tuples, uint64_t key_range, uint64_t seed) {
  Relation rel(Schema({{"key", AttrType::kInt32, 4},
                       {"value", AttrType::kInt64, 8},
                       {"pad", AttrType::kFixedChar, 4}}));
  Rng rng(seed);
  for (uint64_t i = 0; i < tuples; ++i) {
    uint8_t t[16] = {};
    uint32_t key = uint32_t(rng.NextBounded(key_range));
    int64_t value = rng.NextInRange(-50, 50);
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    rel.Append(t, sizeof(t), HashKey32(key));
  }
  return rel;
}

// Oracle aggregation with std::map.
std::map<uint32_t, std::pair<uint64_t, int64_t>> Oracle(
    const Relation& facts) {
  std::map<uint32_t, std::pair<uint64_t, int64_t>> m;
  facts.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t) {
    uint32_t key;
    int64_t value;
    std::memcpy(&key, t, 4);
    std::memcpy(&value, t + 4, 8);
    m[key].first += 1;
    m[key].second += value;
  });
  return m;
}

void ExpectMatchesOracle(const HashAggTable& agg, const Relation& facts) {
  auto oracle = Oracle(facts);
  ASSERT_EQ(agg.num_groups(), oracle.size());
  agg.ForEachGroup([&](const AggState& s) {
    auto it = oracle.find(s.key);
    ASSERT_NE(it, oracle.end()) << "unexpected group " << s.key;
    EXPECT_EQ(s.count, it->second.first) << "key " << s.key;
    EXPECT_EQ(s.sum, it->second.second) << "key " << s.key;
  });
}

// Kernel parameters with group size `g` (the group scheme's strip size).
KernelParams WithGroupSize(uint32_t g) {
  KernelParams params;
  params.group_size = g;
  return params;
}

class AggregateGroupSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AggregateGroupSizeTest, MatchesOracle) {
  Relation facts = MakeFacts(20000, 3000, 11);
  RealMemory mm;
  HashAggTable agg(NextRelativelyPrime(3000, 31));
  AggregateRelation(mm, Scheme::kGroup, facts, 4, &agg,
                    WithGroupSize(GetParam()));
  ExpectMatchesOracle(agg, facts);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, AggregateGroupSizeTest,
                         ::testing::Values(1, 2, 7, 19, 64, 257));

TEST(AggregateBaselineTest, MatchesOracle) {
  Relation facts = MakeFacts(20000, 3000, 12);
  RealMemory mm;
  HashAggTable agg(NextRelativelyPrime(3000, 31));
  AggregateRelation(mm, Scheme::kBaseline, facts, 4, &agg, KernelParams{});
  ExpectMatchesOracle(agg, facts);
}

TEST(AggregateTest, SingleGroupAllTuples) {
  Relation facts = MakeFacts(5000, 1, 13);
  RealMemory mm;
  HashAggTable agg(101);
  AggregateRelation(mm, Scheme::kGroup, facts, 4, &agg,
                    WithGroupSize(19));
  ASSERT_EQ(agg.num_groups(), 1u);
  agg.ForEachGroup([&](const AggState& s) {
    EXPECT_EQ(s.count, 5000u);
  });
}

TEST(AggregateTest, EveryTupleItsOwnGroup) {
  Relation rel(Schema({{"key", AttrType::kInt32, 4},
                       {"value", AttrType::kInt64, 8},
                       {"pad", AttrType::kFixedChar, 4}}));
  for (uint32_t i = 0; i < 2000; ++i) {
    uint8_t t[16] = {};
    int64_t v = 7;
    std::memcpy(t, &i, 4);
    std::memcpy(t + 4, &v, 8);
    rel.Append(t, sizeof(t), HashKey32(i));
  }
  RealMemory mm;
  HashAggTable agg(NextRelativelyPrime(2000, 31));
  AggregateRelation(mm, Scheme::kGroup, rel, 4, &agg,
                    WithGroupSize(19));
  EXPECT_EQ(agg.num_groups(), 2000u);
  agg.ForEachGroup([&](const AggState& s) {
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.sum, 7);
  });
}

TEST(AggregateTest, EmptyInput) {
  Relation rel(Schema::KeyPayload(16));
  RealMemory mm;
  HashAggTable agg(13);
  AggregateRelation(mm, Scheme::kGroup, rel, 4, &agg,
                    WithGroupSize(19));
  EXPECT_EQ(agg.num_groups(), 0u);
}

TEST(AggregateTest, SkewedDuplicatesWithinOneGroupBatch) {
  // Zipf-heavy keys: many same-key tuples inside one prefetch group; the
  // create-then-find ordering within stage 1 must keep counts exact.
  Relation facts = GenerateSkewedRelation(10000, 16, 1.05, 20, 21);
  // GenerateSkewedRelation has no 8-byte value column; aggregate with
  // value_offset beyond the tuple so only counts accumulate.
  RealMemory mm;
  HashAggTable agg(97);
  AggregateRelation(mm, Scheme::kGroup, facts, /*value_offset=*/100, &agg,
                    WithGroupSize(37));
  uint64_t total = 0;
  agg.ForEachGroup([&](const AggState& s) { total += s.count; });
  EXPECT_EQ(total, facts.num_tuples());
  EXPECT_LE(agg.num_groups(), 20u);
}

TEST(AggregateTest, FindLocatesGroups) {
  Relation facts = MakeFacts(1000, 50, 31);
  RealMemory mm;
  HashAggTable agg(53);
  AggregateRelation(mm, Scheme::kBaseline, facts, 4, &agg, KernelParams{});
  auto oracle = Oracle(facts);
  for (auto& [key, cs] : oracle) {
    const AggState* s = agg.Find(key);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, cs.first);
  }
  EXPECT_EQ(agg.Find(999999), nullptr);
}

TEST(AggregateTest, SimulatedGroupPrefetchReducesStalls) {
  Relation facts = MakeFacts(40000, 30000, 41);
  uint64_t buckets = NextRelativelyPrime(30000, 31);
  auto run = [&](bool group) {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    HashAggTable agg(buckets);
    if (group) {
      AggregateRelation(mm, Scheme::kGroup, facts, 4, &agg,
                        WithGroupSize(19));
    } else {
      AggregateRelation(mm, Scheme::kBaseline, facts, 4, &agg,
                        KernelParams{});
    }
    return simulator.stats();
  };
  sim::SimStats base = run(false);
  sim::SimStats gp = run(true);
  EXPECT_GT(base.TotalCycles(), gp.TotalCycles() * 3 / 2);
  EXPECT_LT(gp.dcache_stall_cycles, base.dcache_stall_cycles / 2);
}

}  // namespace
}  // namespace hashjoin
