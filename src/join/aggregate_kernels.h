#ifndef HASHJOIN_JOIN_AGGREGATE_KERNELS_H_
#define HASHJOIN_JOIN_AGGREGATE_KERNELS_H_

#include <cstring>
#include <deque>

#include "hash/hash_func.h"
#include "hash/hash_table.h"
#include "join/join_common.h"
#include "join/pipeline.h"
#include "model/cost_model.h"
#include "simcache/sim_config.h"
#include "storage/relation.h"
#include "util/logging.h"

namespace hashjoin {

/// Aggregation-loop stage costs for the generalized prefetching models:
/// stage 0 hashes the key, stage 1 visits the accumulator cell (the one
/// dependent reference, k = 1). The canonical cost vector for tuning the
/// aggregation kernels' group size / prefetch distance with
/// model::ChooseParams — shared by AggregateOperator's auto-tune path
/// and the real_agg bench.
inline model::CodeCosts AggregateCodeCosts() {
  sim::SimConfig def;
  return model::CodeCosts{
      {def.cost_hash, def.cost_visit_cell + def.cost_key_compare}};
}

/// Hash-based group-by aggregation accelerated with the paper's
/// prefetching techniques — the extension the conclusions call out
/// ("our techniques can improve other hash-based algorithms such as
/// hash-based group-by and aggregation"). Groups by the 4-byte key at
/// offset 0 and maintains COUNT(*) and SUM over an 8-byte signed value
/// at a caller-chosen offset.
struct AggState {
  uint32_t key = 0;
  uint32_t pad = 0;
  uint64_t count = 0;
  int64_t sum = 0;
};

/// Aggregation hash table: reuses the join-phase bucket structure, with
/// cells pointing at AggState records in a stable arena.
class HashAggTable {
 public:
  explicit HashAggTable(uint64_t num_buckets) : table_(num_buckets) {}

  HashTable& table() { return table_; }
  const HashTable& table() const { return table_; }

  /// Allocates a zeroed group state (stable address).
  AggState* NewState(uint32_t key) {
    states_.push_back(AggState{});
    states_.back().key = key;
    return &states_.back();
  }

  uint64_t num_groups() const { return states_.size(); }

  /// Invokes f(const AggState&) for every group.
  template <typename F>
  void ForEachGroup(F&& f) const {
    for (const AggState& s : states_) f(s);
  }

  /// Finds a group's state (test helper); nullptr if absent.
  const AggState* Find(uint32_t key) const {
    const AggState* found = nullptr;
    table_.Probe(HashKey32(key), [&](const uint8_t* p) {
      const AggState* s = reinterpret_cast<const AggState*>(p);
      if (s->key == key) found = s;
    });
    return found;
  }

 private:
  HashTable table_;
  std::deque<AggState> states_;  // deque: stable addresses across growth
};

/// Per-tuple pipeline state for the prefetched aggregation loops.
struct AggPipelineState {
  uint32_t hash = 0;
  uint32_t key = 0;
  int64_t value = 0;
  AggState* state = nullptr;

  /// Clears the per-tuple fields before a new tuple occupies this state
  /// slot (stage 0); shared by every scheme (see ProbeState).
  void ResetForTuple() {
    value = 0;
    state = nullptr;
  }
};

/// Stage 0 of aggregation, shared by every scheme: pull the next input
/// tuple, read its key and value, hash, and (when `prefetch` is set)
/// prefetch the input page on entry and the bucket header the visit
/// stage will touch. Returns false at end of input.
template <typename MM>
inline bool AggStage0(MM& mm, TupleCursor& cursor, AggPipelineState& st,
                      uint32_t value_offset, HashTable& ht, bool prefetch) {
  const auto& cfg = mm.config();
  const SlottedPage::Slot* slot;
  const uint8_t* tuple;
  bool new_page = false;
  if (!cursor.Next(&slot, &tuple, &new_page)) return false;
  if (prefetch && new_page) {
    mm.Prefetch(cursor.CurrentPageData(), cursor.page_size());
  }
  mm.Read(slot, sizeof(SlottedPage::Slot));
  st.ResetForTuple();
  mm.Read(tuple, 4);
  std::memcpy(&st.key, tuple, 4);
  st.hash = HashKey32(st.key);
  mm.Busy(cfg.cost_hash * 2);
  if (value_offset + 8 <= slot->length) {
    mm.Read(tuple + value_offset, 8);
    std::memcpy(&st.value, tuple + value_offset, 8);
  }
  if (prefetch) {
    mm.Prefetch(ht.bucket(ht.BucketIndex(st.hash)), sizeof(BucketHeader));
  }
  return true;
}

/// Locates (or creates) the group state for one tuple. The bucket and
/// its cells are resident after the visit, so creation completes inside
/// this stage — unlike join building, aggregation needs no busy-flag
/// protocol: a second tuple of the same group later in the stage loop
/// simply finds the freshly created state.
template <typename MM>
inline AggState* AggVisitBucket(MM& mm, HashAggTable* agg, uint32_t hash,
                                uint32_t key) {
  const auto& cfg = mm.config();
  HashTable& ht = agg->table();
  BucketHeader* b = ht.bucket(ht.BucketIndex(hash));
  mm.Read(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_header);
  if (b->count > 0) {
    if (b->hash == hash) {
      AggState* s =
          reinterpret_cast<AggState*>(const_cast<uint8_t*>(b->tuple));
      mm.Read(&s->key, sizeof(s->key));
      if (s->key == key) return s;
    }
    if (b->count > 1) {
      uint32_t n = b->count - 1;
      mm.Read(b->array, size_t(n) * sizeof(HashCell));
      mm.Busy(cfg.cost_visit_cell * n);
      for (uint32_t i = 0; i < n; ++i) {
        if (b->array[i].hash != hash) continue;
        AggState* s = reinterpret_cast<AggState*>(
            const_cast<uint8_t*>(b->array[i].tuple));
        mm.Read(&s->key, sizeof(s->key));
        if (s->key == key) return s;
      }
    }
  }
  AggState* s = agg->NewState(key);
  ht.Insert(hash, reinterpret_cast<const uint8_t*>(s));
  mm.Write(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_slot_bookkeeping);
  return s;
}

/// One accumulator update (the second dependent reference, m2).
template <typename MM>
inline void AggUpdate(MM& mm, AggPipelineState& st) {
  const auto& cfg = mm.config();
  mm.Read(st.state, sizeof(AggState));
  st.state->count += 1;
  // SUM wraps modulo 2^64 like the machine add; a signed += would make
  // an overflowing input undefined behaviour.
  st.state->sum = int64_t(uint64_t(st.state->sum) + uint64_t(st.value));
  mm.Write(st.state, sizeof(AggState));
  mm.Busy(cfg.cost_slot_bookkeeping);
}

/// Hash aggregation as a pipeline Op (join/pipeline.h): k = 2
/// dependent references — the bucket visit, which resolves or creates
/// the group state and prefetches it, and the accumulator update. Group
/// creation completes inside the visit (see AggVisitBucket), so no stage
/// ever conflicts: a later tuple of the same group observes the state.
template <typename MM>
struct AggregateOp : ConflictFree<AggPipelineState> {
  using State = AggPipelineState;
  static constexpr uint32_t kStages = 2;

  AggregateOp(MM& mm_in, const Relation& input, uint32_t offset,
              HashAggTable* agg_in)
      : mm(mm_in), cursor(input), value_offset(offset), agg(agg_in) {}

  bool Begin(AggPipelineState& st, bool prefetch) {
    return AggStage0(mm, cursor, st, value_offset, agg->table(), prefetch);
  }
  template <uint32_t S>
  bool Stage(AggPipelineState& st, uint32_t) {
    if constexpr (S == 1) {
      st.state = AggVisitBucket(mm, agg, st.hash, st.key);
      mm.Prefetch(st.state, sizeof(AggState));
    } else {
      AggUpdate(mm, st);
    }
    return true;
  }
  void Serial(AggPipelineState& st) {
    st.state = AggVisitBucket(mm, agg, st.hash, st.key);
    AggUpdate(mm, st);
  }

  MM& mm;
  TupleCursor cursor;
  uint32_t value_offset;
  HashAggTable* agg;
};

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_AGGREGATE_KERNELS_H_
