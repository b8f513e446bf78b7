#include <cstring>
#include <map>
#include <memory>

#include "gtest/gtest.h"
#include "exec/operators.h"
#include "mem/memory_model.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace exec {
namespace {

uint32_t KeyOf(const uint8_t* t) {
  uint32_t k;
  std::memcpy(&k, t, 4);
  return k;
}

// Drains an operator, returning all rows' keys.
std::vector<uint32_t> DrainKeys(Operator* op) {
  std::vector<uint32_t> keys;
  RowBatch batch;
  while (op->Next(&batch)) {
    for (const auto& row : batch.rows) keys.push_back(KeyOf(row.data));
  }
  return keys;
}

TEST(ScanOperatorTest, VisitsEveryRowInBatches) {
  Relation rel(Schema::KeyPayload(16), 512);
  for (uint32_t i = 0; i < 100; ++i) {
    uint8_t t[16] = {};
    std::memcpy(t, &i, 4);
    rel.Append(t, 16);
  }
  ScanOperator scan(&rel, 7);
  ASSERT_TRUE(scan.Open().ok());
  RowBatch batch;
  uint32_t expect = 0;
  while (scan.Next(&batch)) {
    EXPECT_LE(batch.size(), 7u);
    for (const auto& row : batch.rows) {
      EXPECT_EQ(KeyOf(row.data), expect++);
      EXPECT_EQ(row.length, 16);
    }
  }
  EXPECT_EQ(expect, 100u);
}

TEST(ScanOperatorTest, EmptyRelation) {
  Relation rel(Schema::KeyPayload(16));
  ScanOperator scan(&rel);
  ASSERT_TRUE(scan.Open().ok());
  RowBatch batch;
  EXPECT_FALSE(scan.Next(&batch));
}

TEST(FilterOperatorTest, KeepsOnlyMatchingRows) {
  Relation rel(Schema::KeyPayload(16), 512);
  for (uint32_t i = 0; i < 200; ++i) {
    uint8_t t[16] = {};
    std::memcpy(t, &i, 4);
    rel.Append(t, 16);
  }
  FilterOperator filter(
      std::make_unique<ScanOperator>(&rel, 16),
      [](const uint8_t* row, uint16_t) { return KeyOf(row) % 3 == 0; });
  ASSERT_TRUE(filter.Open().ok());
  std::vector<uint32_t> keys = DrainKeys(&filter);
  ASSERT_EQ(keys.size(), 67u);  // 0,3,...,198
  for (uint32_t k : keys) EXPECT_EQ(k % 3, 0u);
}

TEST(FilterOperatorTest, SparseFilterSkipsEmptyBatches) {
  Relation rel(Schema::KeyPayload(16), 512);
  for (uint32_t i = 0; i < 500; ++i) {
    uint8_t t[16] = {};
    std::memcpy(t, &i, 4);
    rel.Append(t, 16);
  }
  FilterOperator filter(
      std::make_unique<ScanOperator>(&rel, 8),
      [](const uint8_t* row, uint16_t) { return KeyOf(row) == 499; });
  ASSERT_TRUE(filter.Open().ok());
  std::vector<uint32_t> keys = DrainKeys(&filter);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], 499u);
}

TEST(ProjectOperatorTest, NarrowsRows) {
  // (key int32, a int64, b int32): project (b, key).
  Schema schema({{"key", AttrType::kInt32, 4},
                 {"a", AttrType::kInt64, 8},
                 {"b", AttrType::kInt32, 4}});
  Relation rel(schema);
  for (uint32_t i = 0; i < 100; ++i) {
    uint8_t t[16] = {};
    int64_t a = int64_t(i) * 10;
    uint32_t b = i + 1000;
    std::memcpy(t, &i, 4);
    std::memcpy(t + 4, &a, 8);
    std::memcpy(t + 12, &b, 4);
    rel.Append(t, sizeof(t));
  }
  ProjectOperator project(std::make_unique<ScanOperator>(&rel, 9),
                          {2u, 0u});
  EXPECT_EQ(project.output_schema().fixed_size(), 8u);
  ASSERT_TRUE(project.Open().ok());
  RowBatch batch;
  uint32_t expect = 0;
  while (project.Next(&batch)) {
    for (const auto& row : batch.rows) {
      ASSERT_EQ(row.length, 8);
      uint32_t b, key;
      std::memcpy(&b, row.data, 4);
      std::memcpy(&key, row.data + 4, 4);
      EXPECT_EQ(b, expect + 1000);
      EXPECT_EQ(key, expect);
      ++expect;
    }
  }
  EXPECT_EQ(expect, 100u);
}

TEST(ProjectOperatorTest, ProjectionFeedsJoin) {
  // Narrow both sides to (key, payload-prefix), then join.
  WorkloadSpec spec;
  spec.num_build_tuples = 1000;
  spec.tuple_size = 64;
  spec.matches_per_build = 1.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  auto proj_build = std::make_unique<ProjectOperator>(
      std::make_unique<ScanOperator>(&w.build, 19),
      std::vector<uint32_t>{0u});
  auto proj_probe = std::make_unique<ProjectOperator>(
      std::make_unique<ScanOperator>(&w.probe, 19),
      std::vector<uint32_t>{0u});
  HashJoinOperator join(std::move(proj_build), std::move(proj_probe));
  ASSERT_TRUE(join.Open().ok());
  RowBatch batch;
  uint64_t rows = 0;
  while (join.Next(&batch)) rows += batch.size();
  EXPECT_EQ(rows, w.expected_matches);
}

class HashJoinOperatorTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(HashJoinOperatorTest, JoinsAllMatches) {
  WorkloadSpec spec;
  spec.num_build_tuples = 3000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.8;
  JoinWorkload w = GenerateJoinWorkload(spec);

  HashJoinOperator join(std::make_unique<ScanOperator>(&w.build, 19),
                        std::make_unique<ScanOperator>(&w.probe, 19),
                        GetParam());
  ASSERT_TRUE(join.Open().ok());
  RowBatch batch;
  uint64_t rows = 0;
  while (join.Next(&batch)) {
    for (const auto& row : batch.rows) {
      ASSERT_EQ(row.length, 40);
      // build key == probe key in the concatenated output
      EXPECT_EQ(KeyOf(row.data), KeyOf(row.data + 20));
      ++rows;
    }
  }
  EXPECT_EQ(rows, w.expected_matches);
  EXPECT_EQ(join.rows_joined(), w.expected_matches);
}

INSTANTIATE_TEST_SUITE_P(Schemes, HashJoinOperatorTest,
                         ::testing::ValuesIn(AllSchemes()),
                         [](const auto& info) {
                           return SchemeName(info.param);
                         });

TEST(HashJoinOperatorTest, EmptyBuildSide) {
  Relation empty(Schema::KeyPayload(16));
  Relation probe(Schema::KeyPayload(16));
  uint8_t t[16] = {};
  probe.Append(t, 16);
  HashJoinOperator join(std::make_unique<ScanOperator>(&empty),
                        std::make_unique<ScanOperator>(&probe));
  ASSERT_TRUE(join.Open().ok());
  RowBatch batch;
  EXPECT_FALSE(join.Next(&batch));
}

TEST(AggregateOperatorTest, CountsAndSums) {
  Relation facts(Schema({{"key", AttrType::kInt32, 4},
                         {"value", AttrType::kInt64, 8},
                         {"pad", AttrType::kFixedChar, 4}}));
  Rng rng(61);
  std::map<uint32_t, std::pair<int64_t, int64_t>> oracle;
  for (int i = 0; i < 5000; ++i) {
    uint8_t t[16] = {};
    uint32_t key = uint32_t(rng.NextBounded(100));
    int64_t value = rng.NextInRange(0, 9);
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    facts.Append(t, sizeof(t));
    oracle[key].first += 1;
    oracle[key].second += value;
  }
  AggregateOperator agg(std::make_unique<ScanOperator>(&facts, 32),
                        /*value_offset=*/4);
  ASSERT_TRUE(agg.Open().ok());
  RowBatch batch;
  size_t groups = 0;
  while (agg.Next(&batch)) {
    for (const auto& row : batch.rows) {
      ASSERT_EQ(row.length, 20);
      uint32_t key = KeyOf(row.data);
      int64_t count, sum;
      std::memcpy(&count, row.data + 4, 8);
      std::memcpy(&sum, row.data + 12, 8);
      auto it = oracle.find(key);
      ASSERT_NE(it, oracle.end());
      EXPECT_EQ(count, it->second.first) << key;
      EXPECT_EQ(sum, it->second.second) << key;
      ++groups;
    }
  }
  EXPECT_EQ(groups, oracle.size());
}

TEST(PipelineTest, ScanFilterJoinAggregate) {
  // SELECT o.key, COUNT(*), SUM(...) over (filtered orders ⋈ lineitems).
  WorkloadSpec spec;
  spec.num_build_tuples = 2000;
  spec.tuple_size = 20;
  spec.matches_per_build = 3.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  auto scan_build = std::make_unique<ScanOperator>(&w.build, 19);
  auto filter = std::make_unique<FilterOperator>(
      std::move(scan_build),
      [](const uint8_t* row, uint16_t) { return KeyOf(row) % 2 == 0; });
  auto scan_probe = std::make_unique<ScanOperator>(&w.probe, 19);
  auto join = std::make_unique<HashJoinOperator>(std::move(filter),
                                                 std::move(scan_probe));
  AggregateOperator agg(std::move(join), /*value_offset=*/4);
  ASSERT_TRUE(agg.Open().ok());

  RowBatch batch;
  uint64_t total_count = 0;
  size_t groups = 0;
  while (agg.Next(&batch)) {
    for (const auto& row : batch.rows) {
      int64_t count;
      std::memcpy(&count, row.data + 4, 8);
      EXPECT_EQ(KeyOf(row.data) % 2, 0u);  // filter applied pre-join
      EXPECT_EQ(count, 3);                 // 3 lineitems per order
      total_count += uint64_t(count);
      ++groups;
    }
  }
  EXPECT_EQ(groups, 1000u);         // even keys 2..2000
  EXPECT_EQ(total_count, 3000u);
}

TEST(GraceJoinOperatorTest, JoinsWithConfiguredThreads) {
  WorkloadSpec spec;
  spec.num_build_tuples = 5000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  for (uint32_t threads : {1u, 4u}) {
    GraceConfig config;
    config.forced_num_partitions = 4;
    config.num_threads = threads;
    GraceJoinOperator join(std::make_unique<ScanOperator>(&w.build, 32),
                           std::make_unique<ScanOperator>(&w.probe, 32),
                           config);
    ASSERT_TRUE(join.Open().ok());
    uint64_t rows = 0;
    RowBatch batch;
    while (join.Next(&batch)) {
      for (const auto& row : batch.rows) {
        ASSERT_EQ(row.length, 40u);  // build columns then probe columns
        EXPECT_EQ(KeyOf(row.data), KeyOf(row.data + 20));
        ++rows;
      }
    }
    EXPECT_EQ(rows, w.expected_matches) << "threads=" << threads;
    EXPECT_EQ(join.rows_joined(), w.expected_matches);
    EXPECT_EQ(join.join_result().num_partitions, 4u);
  }
}

}  // namespace
}  // namespace exec
}  // namespace hashjoin
