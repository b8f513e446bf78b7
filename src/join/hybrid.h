#ifndef HASHJOIN_JOIN_HYBRID_H_
#define HASHJOIN_JOIN_HYBRID_H_

#include <vector>

#include "join/grace.h"

namespace hashjoin {

/// Partition count of a hybrid hash join: the forced count if set, the
/// memory-budget sizing otherwise, clamped to at least 2 — hybrid's
/// structure needs partition 0 (built in place) plus at least one spilled
/// partition, even when the whole build would fit in memory. Sizing
/// honors a live broker grant (`config.dynamic_budget`) when one is
/// wired in: a query admitted under a small grant spills more partitions
/// up front instead of overrunning its share.
///
/// `allow_single_partition` relaxes the clamp to 1 for inputs that are
/// already one partition of a parent join (recursion depth >= 1): there
/// the "at least one spilled partition" invariant is the parent's
/// business, and re-spilling a level that fits the grant would turn a
/// finished join into gratuitous I/O. With count 1 everything routes to
/// the in-place partition 0 and the spilled-partition loops are empty.
inline uint32_t HybridPartitionCount(uint64_t build_tuples,
                                     uint64_t build_bytes,
                                     const GraceConfig& config,
                                     bool allow_single_partition = false) {
  uint32_t num_parts =
      config.forced_num_partitions != 0
          ? config.forced_num_partitions
          : ComputeNumPartitions(build_tuples, build_bytes,
                                 EffectiveMemoryBudget(config));
  const uint32_t min_parts = allow_single_partition ? 1 : 2;
  return num_parts < min_parts ? min_parts : num_parts;
}

/// Hybrid hash join [DeWitt et al.], one of the GRACE refinements the
/// paper's §2 says its techniques apply to: partition 0 never touches
/// intermediate storage. During the build relation's partition pass its
/// partition-0 tuples go straight into an in-memory hash table; during
/// the probe relation's pass its partition-0 tuples probe that table
/// immediately. The remaining partitions are joined as in GRACE, with
/// the configured prefetching scheme. The two partition passes use the
/// serial kernels with simple input prefetching (group-prefetching the
/// two interleaved pipelines — partitioning and joining — is possible
/// but out of scope; see DESIGN.md).
template <typename MM>
JoinResult HybridHashJoin(MM& mm, const Relation& build,
                          const Relation& probe, const GraceConfig& config,
                          Relation* output) {
  JoinResult result;
  uint32_t num_parts =
      HybridPartitionCount(build.num_tuples(), build.data_bytes(), config,
                           config.hybrid_allow_single_partition);
  result.num_partitions = num_parts;

  // Partition-0 hash table, sized for its expected share of the build.
  HashTable ht(
      ChooseBucketCount(build.num_tuples() / num_parts + 1, num_parts));

  std::vector<Relation> build_parts;
  std::vector<Relation> probe_parts;
  for (uint32_t p = 0; p + 1 < num_parts; ++p) {
    build_parts.emplace_back(build.schema(), config.page_size);
    probe_parts.emplace_back(probe.schema(), config.page_size);
  }

  const auto& cfg = mm.config();
  result.partition_phase = internal_grace::MeasurePhase(mm, [&] {
    // --- build pass: partition 0 builds in place, the rest spill ---
    {
      PartitionSinkSet sinks(&build_parts, config.page_size);
      PartitionContext<MM> pctx(&mm, &sinks, num_parts, build);
      BuildContext<MM> bctx(&mm, &ht, build, HashCodeMode::kCompute);
      TupleCursor cursor(build);
      const SlottedPage::Slot* slot;
      const uint8_t* tuple;
      bool new_page = false;
      while (cursor.Next(&slot, &tuple, &new_page)) {
        if (new_page) {
          mm.Prefetch(cursor.CurrentPageData(), cursor.page_size());
        }
        mm.Read(slot, sizeof(SlottedPage::Slot));
        uint32_t key;
        mm.Read(tuple, 4);
        std::memcpy(&key, tuple, 4);
        uint32_t hash = HashKey32(key);
        mm.Busy(cfg.cost_hash * 2);
        uint32_t p = hash % num_parts;
        if (p == 0) {
          BuildInsertSerial(bctx, tuple, hash);
        } else {
          PartitionState st;
          st.tuple = tuple;
          st.length = slot->length;
          st.hash = hash;
          st.sink = sinks.sink(p - 1);
          PartitionInsertSerial(pctx, st);
        }
      }
      sinks.FinalFlushAll();
    }
    // --- probe pass: partition 0 probes immediately, the rest spill ---
    {
      PartitionSinkSet sinks(&probe_parts, config.page_size);
      PartitionContext<MM> pctx(&mm, &sinks, num_parts, probe);
      ProbeContext<MM> octx(&mm, &ht, build.schema().fixed_size(),
                            probe.schema().fixed_size(), probe, output,
                            config.join_params);
      TupleCursor cursor(probe);
      const SlottedPage::Slot* slot;
      const uint8_t* tuple;
      bool new_page = false;
      while (cursor.Next(&slot, &tuple, &new_page)) {
        if (new_page) {
          mm.Prefetch(cursor.CurrentPageData(), cursor.page_size());
        }
        mm.Read(slot, sizeof(SlottedPage::Slot));
        uint32_t key;
        mm.Read(tuple, 4);
        std::memcpy(&key, tuple, 4);
        uint32_t hash = HashKey32(key);
        mm.Busy(cfg.cost_hash * 2);
        uint32_t p = hash % num_parts;
        if (p == 0) {
          ProbeState st;
          st.tuple = tuple;
          st.hash = hash;
          st.bucket = ht.bucket(ht.BucketIndex(hash));
          st.alive = true;
          ProbeStage1(octx, st, /*prefetch=*/false);
          ProbeStage2(octx, st, false);
          ProbeStage3(octx, st);
        } else {
          PartitionState st;
          st.tuple = tuple;
          st.length = slot->length;
          st.hash = hash;
          st.sink = sinks.sink(p - 1);
          PartitionInsertSerial(pctx, st);
        }
      }
      sinks.FinalFlushAll();
      octx.sink.Final();
      result.output_tuples += octx.output_count;
    }
  });
  result.partition_phase.tuples_processed =
      build.num_tuples() + probe.num_tuples();

  // --- join phase over the spilled partitions, exactly as in GRACE ---
  result.join_phase = internal_grace::MeasurePhase(mm, [&] {
    for (uint32_t p = 0; p + 1 < num_parts; ++p) {
      result.output_tuples += JoinPartitionPair(
          mm, config.join_scheme, build_parts[p], probe_parts[p],
          config.join_params, num_parts, output);
    }
  });
  return result;
}

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_HYBRID_H_
