#ifndef HASHJOIN_JOIN_BUILD_KERNELS_H_
#define HASHJOIN_JOIN_BUILD_KERNELS_H_

#include <cstring>

#include "hash/hash_func.h"
#include "hash/hash_table.h"
#include "join/join_common.h"
#include "storage/relation.h"
#include "util/logging.h"

namespace hashjoin {

/// Shared context of one hash-table build pass over a partition.
template <typename MM>
struct BuildContext {
  MM* mm;
  HashTable* ht;
  HashCodeMode hash_mode;
  TupleCursor cursor;

  BuildContext(MM* mm_in, HashTable* ht_in, const Relation& build,
               HashCodeMode mode)
      : mm(mm_in), ht(ht_in), hash_mode(mode), cursor(build) {}
};

/// Per-tuple pipeline state for the prefetching build kernels. The
/// `next_waiting` field threads the software-pipelined scheme's waiting
/// queue for busy buckets through the states themselves (§5.3).
struct BuildState {
  const uint8_t* tuple = nullptr;
  uint32_t hash = 0;
  BucketHeader* bucket = nullptr;
  bool append_pending = false;  // cell-array write still owed (stage 2)
  int32_t next_waiting = -1;    // SPP waiting queue link (state index)
  int32_t waiting_head = -1;    // SPP: head of tuples waiting on my bucket

  /// Clears the per-tuple fields before a new tuple occupies this state
  /// slot (stage 0); shared by every scheme (see ProbeState).
  void ResetForTuple() {
    append_pending = false;
    next_waiting = -1;
    waiting_head = -1;
  }
};

/// Accounts the (rare) cell-array growth a bucket insert may trigger:
/// allocating a bigger array and copying the old cells.
template <typename MM>
inline void BuildEnsureCapacity(BuildContext<MM>& ctx, BucketHeader* b) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  uint32_t in_array = b->count > 0 ? b->count - 1 : 0;
  bool grows = (b->array == nullptr || in_array == b->capacity);
  if (!grows) return;
  HashCell* old = b->array;
  ctx.ht->EnsureArrayCapacity(b);
  if (old != nullptr && in_array > 0) {
    mm.Read(old, size_t(in_array) * sizeof(HashCell));
    mm.Write(b->array, size_t(in_array) * sizeof(HashCell));
    mm.Busy(uint32_t(
        cfg.cost_tuple_copy_per_line *
        ((in_array * uint32_t(sizeof(HashCell)) + kCacheLineSize - 1) /
         kCacheLineSize)));
  }
  mm.Busy(cfg.cost_slot_bookkeeping);
}

/// Inserts one tuple start-to-finish with no prefetching — the baseline
/// path, and also the conflict-resolution path both prefetching schemes
/// fall back to once the bucket is known to be cached (§4.4: "the
/// previous access has also warmed up the cache ... so we insert the
/// delayed tuple without prefetching").
template <typename MM>
inline void BuildInsertSerial(BuildContext<MM>& ctx, const uint8_t* tuple,
                              uint32_t hash) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  BucketHeader* b = ctx.ht->bucket(ctx.ht->BucketIndex(hash));
  mm.Read(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_header);
  bool empty = (b->count == 0);
  mm.Branch(kBranchBucketEmpty, empty);
  if (empty) {
    b->hash = hash;
    b->tuple = tuple;
    b->count = 1;
    mm.Write(b, sizeof(BucketHeader));
    ctx.ht->BumpTupleCount();
    return;
  }
  BuildEnsureCapacity(ctx, b);
  HashCell* cell = &b->array[b->count - 1];
  cell->hash = hash;
  cell->tuple = tuple;
  ++b->count;
  mm.Write(cell, sizeof(HashCell));
  mm.Write(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_cell);
  ctx.ht->BumpTupleCount();
}

/// Code 0 of building: pull the next build tuple, obtain its hash code,
/// compute the bucket. Returns false at end of input.
template <typename MM>
inline bool BuildStage0(BuildContext<MM>& ctx, BuildState& st,
                        bool prefetch) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  const SlottedPage::Slot* slot = nullptr;
  bool new_page = false;
  if (!ctx.cursor.Next(&slot, &st.tuple, &new_page)) return false;
  if (prefetch && new_page) {
    mm.Prefetch(ctx.cursor.CurrentPageData(), ctx.cursor.page_size());
  }
  mm.Read(slot, sizeof(SlottedPage::Slot));
  if (ctx.hash_mode == HashCodeMode::kMemoized) {
    st.hash = slot->hash_code;
    mm.Busy(cfg.cost_slot_bookkeeping);
  } else {
    uint32_t key;
    mm.Read(st.tuple, 4);
    std::memcpy(&key, st.tuple, 4);
    st.hash = HashKey32(key);
    mm.Busy(cfg.cost_hash);
  }
  st.bucket = ctx.ht->bucket(ctx.ht->BucketIndex(st.hash));
  mm.Busy(cfg.cost_hash);
  st.ResetForTuple();
  if (prefetch) mm.Prefetch(st.bucket, sizeof(BucketHeader));
  return true;
}

/// Code 1 of building: visit the bucket header. Empty buckets complete
/// inline (the single hash cell lives in the header, Figure 2); others
/// acquire the bucket (owner flag), size the cell array, and prefetch the
/// cell slot that stage 2 will write. Returns false if the bucket was
/// busy — the caller applies its scheme's conflict protocol (§4.4/§5.3).
template <typename MM>
inline bool BuildStage1(BuildContext<MM>& ctx, BuildState& st,
                        bool prefetch, uint32_t owner_tag) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  BucketHeader* b = st.bucket;
  mm.Read(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_header);
  bool busy = (b->owner != 0);
  mm.Branch(kBranchBucketBusy, busy);
  if (busy) return false;
  bool empty = (b->count == 0);
  mm.Branch(kBranchBucketEmpty, empty);
  if (empty) {
    b->hash = st.hash;
    b->tuple = st.tuple;
    b->count = 1;
    mm.Write(b, sizeof(BucketHeader));
    ctx.ht->BumpTupleCount();
    return true;
  }
  b->owner = owner_tag;
  BuildEnsureCapacity(ctx, b);
  st.append_pending = true;
  if (prefetch) {
    mm.Prefetch(&b->array[b->count - 1], sizeof(HashCell));
  }
  return true;
}

/// Code 2 of building: write the hash cell, publish the new count, and
/// release the bucket.
template <typename MM>
inline void BuildStage2(BuildContext<MM>& ctx, BuildState& st) {
  if (!st.append_pending) return;
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  BucketHeader* b = st.bucket;
  HashCell* cell = &b->array[b->count - 1];
  cell->hash = st.hash;
  cell->tuple = st.tuple;
  ++b->count;
  b->owner = 0;
  mm.Write(cell, sizeof(HashCell));
  mm.Write(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_cell);
  ctx.ht->BumpTupleCount();
  st.append_pending = false;
}

/// The hash-table build as a pipeline Op (join/pipeline.h): k = 2
/// dependent references — the bucket header, the cell slot. A bucket
/// another in-flight tuple is updating is a conflict; it is never
/// resolved inline (the owner is mid-update), so the tuple is delayed
/// (group), queued on the owner's state (SPP) or retried (coro).
template <typename MM>
struct BuildOp {
  using State = BuildState;
  static constexpr uint32_t kStages = 2;

  explicit BuildOp(BuildContext<MM>& c) : ctx(c) {}

  bool Begin(BuildState& st, bool prefetch) {
    return BuildStage0(ctx, st, prefetch);
  }
  /// The owner tag is the slot + 1, so SPP finds the owner's state.
  template <uint32_t S>
  bool Stage(BuildState& st, uint32_t slot) {
    if constexpr (S == 1) {
      return BuildStage1(ctx, st, /*prefetch=*/true, slot + 1);
    } else {
      BuildStage2(ctx, st);
      return true;
    }
  }
  void Serial(BuildState& st) { BuildInsertSerial(ctx, st.tuple, st.hash); }

  bool Resolve(BuildState&) { return false; }
  /// Appends states[slot] to the bucket owner's waiting queue (§5.3).
  void Park(BuildState* states, uint32_t slot) {
    BuildState& st = states[slot];
    BuildState& owner = states[st.bucket->owner - 1];
    st.next_waiting = owner.waiting_head;
    owner.waiting_head = int32_t(slot);
  }
  /// After the owner's code 2 released the bucket, its waiters insert
  /// serially against the now-cached bucket.
  template <typename F>
  void Wake(BuildState* states, BuildState& owner, F&& done) {
    int32_t w = owner.waiting_head;
    owner.waiting_head = -1;
    while (w >= 0) {
      BuildState& ws = states[w];
      done(ws);
      w = ws.next_waiting;
      ws.next_waiting = -1;
    }
  }

  BuildContext<MM>& ctx;
};

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_BUILD_KERNELS_H_
