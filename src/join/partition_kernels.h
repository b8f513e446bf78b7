#ifndef HASHJOIN_JOIN_PARTITION_KERNELS_H_
#define HASHJOIN_JOIN_PARTITION_KERNELS_H_

#include <algorithm>
#include <cstring>
#include <vector>

#include "hash/hash_func.h"
#include "join/join_common.h"
#include "join/pipeline.h"
#include "storage/relation.h"
#include "util/aligned.h"
#include "util/logging.h"

namespace hashjoin {

/// One partition's output buffer: a single active page whose bookkeeping
/// (tuple count, bump offset) lives in this descriptor — not in the page
/// — so the partition kernels' first dependent reference (m1) is one
/// cache line computable from the partition number, exactly the paper's
/// §6 structure. When the page fills it is "written out": ownership
/// moves to the destination relation (modeling the async disk write that
/// recycles the buffer) and a fresh page is installed.
///
/// Fields are public: the prefetching kernels interleave partially
/// complete visits across tuples, which an encapsulating method could
/// not express (same rationale as BucketHeader).
struct alignas(kCacheLineSize) PartitionSink {
  uint8_t* page = nullptr;       // active page base
  uint16_t slot_count = 0;
  uint16_t free_offset = 0;
  uint32_t pending = 0;          // allocated but not yet copied (SPP)
  int32_t waiting_head = -1;     // SPP waiting queue (state index)
  Relation* dest = nullptr;

  /// Space left for one `length`-byte tuple plus its slot entry.
  bool HasRoom(uint16_t length, uint32_t page_size) const {
    uint32_t used =
        free_offset +
        (uint32_t(slot_count) + 1) * uint32_t(sizeof(SlottedPage::Slot));
    return used + length <= page_size;
  }
};

/// Manages the P sinks of one partition pass.
class PartitionSinkSet {
 public:
  PartitionSinkSet(std::vector<Relation>* dests, uint32_t page_size)
      : page_size_(page_size) {
    sinks_ = MakeAlignedBuffer<PartitionSink>(dests->size());
    num_sinks_ = dests->size();
    for (size_t i = 0; i < num_sinks_; ++i) {
      sinks_[i] = PartitionSink{};
      sinks_[i].dest = &(*dests)[i];
      InstallFreshPage(&sinks_[i]);
    }
  }

  PartitionSink* sink(uint32_t p) { return &sinks_[p]; }
  uint32_t page_size() const { return page_size_; }

  /// Allocates space for a tuple in the sink's active page; returns the
  /// destination address and records the slot, or nullptr when the page
  /// is full (the caller applies its scheme's conflict protocol).
  uint8_t* TryAlloc(PartitionSink* s, uint16_t length, uint32_t hash_code,
                    SlottedPage::Slot** slot_out) {
    if (!s->HasRoom(length, page_size_)) return nullptr;
    SlottedPage::Slot* slot =
        reinterpret_cast<SlottedPage::Slot*>(s->page + page_size_) - 1 -
        s->slot_count;
    slot->offset = s->free_offset;
    slot->length = length;
    slot->hash_code = hash_code;
    uint8_t* dst = s->page + s->free_offset;
    s->free_offset = uint16_t(s->free_offset + length);
    ++s->slot_count;
    if (slot_out != nullptr) *slot_out = slot;
    return dst;
  }

  /// Writes the page header and "writes out" the full page: the bytes
  /// are copied to the destination relation and the buffer is reused for
  /// the next page. On the paper's system this is an asynchronous disk
  /// write (DMA) that recycles the buffer — which is exactly why, with
  /// few partitions, the active buffers stay cache-resident and simple
  /// prefetching suffices (§7.4). Callers must ensure every allocated
  /// tuple has been copied before flushing (the read-write conflict,
  /// §6), and account only the header write, not the DMA.
  void Flush(PartitionSink* s) {
    SlottedPage::PageHeader* h =
        reinterpret_cast<SlottedPage::PageHeader*>(s->page);
    h->slot_count = s->slot_count;
    h->free_offset = s->free_offset;
    h->page_size = page_size_;
    s->dest->AppendCopiedPage(s->page);
    s->slot_count = 0;
    s->free_offset = sizeof(SlottedPage::PageHeader);
  }

  /// Flushes every sink's partial page (end of the partition pass) and
  /// releases the buffers.
  void FinalFlushAll() {
    for (size_t i = 0; i < num_sinks_; ++i) {
      PartitionSink* s = &sinks_[i];
      HJ_CHECK(s->pending == 0);
      HJ_CHECK(s->waiting_head == -1);
      if (s->slot_count > 0) Flush(s);
      AlignedFree(s->page);
      s->page = nullptr;
    }
  }

 private:
  void InstallFreshPage(PartitionSink* s) {
    s->page = static_cast<uint8_t*>(AlignedAlloc(page_size_, page_size_));
    s->slot_count = 0;
    s->free_offset = sizeof(SlottedPage::PageHeader);
  }

  uint32_t page_size_;
  AlignedBuffer<PartitionSink> sinks_;
  size_t num_sinks_ = 0;
};

/// Shared context of one partition pass. `hash_divisor` supports
/// multi-pass partitioning (when a storage manager caps the number of
/// active partitions, §7.5): pass 1 splits on hash % P1, pass 2 on
/// (hash / P1) % P2, giving a consistent final partition id
/// p1 * P2 + p2 on both relations.
template <typename MM>
struct PartitionContext {
  MM* mm;
  PartitionSinkSet* sinks;
  uint32_t num_partitions;
  uint32_t hash_divisor;
  TupleCursor cursor;

  PartitionContext(MM* mm_in, PartitionSinkSet* sinks_in, uint32_t p,
                   const Relation& input, uint32_t divisor = 1,
                   PageRange range = PageRange{})
      : mm(mm_in),
        sinks(sinks_in),
        num_partitions(p),
        hash_divisor(divisor == 0 ? 1 : divisor),
        cursor(input, range.begin, range.end) {}
};

/// Per-tuple pipeline state for the prefetching partition kernels.
struct PartitionState {
  const uint8_t* tuple = nullptr;
  uint16_t length = 0;
  uint32_t hash = 0;
  PartitionSink* sink = nullptr;
  uint8_t* dst = nullptr;             // copy destination (stage 2)
  SlottedPage::Slot* slot = nullptr;  // slot entry to fill (stage 2)
  bool copy_pending = false;
  int32_t next_waiting = -1;  // SPP waiting queue link

  /// Clears the per-tuple fields before a new tuple occupies this state
  /// slot (stage 0); shared by every scheme (see ProbeState).
  void ResetForTuple() {
    dst = nullptr;
    slot = nullptr;
    copy_pending = false;
    next_waiting = -1;
  }
};

/// Code 0 of partitioning: read the next input tuple's key, compute the
/// 4-byte hash code (memoized into the output slot later) and the
/// partition number, and prefetch the sink descriptor.
template <typename MM>
inline bool PartitionStage0(PartitionContext<MM>& ctx, PartitionState& st,
                            bool prefetch, bool prefetch_input_pages) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  const SlottedPage::Slot* slot = nullptr;
  bool new_page = false;
  if (!ctx.cursor.Next(&slot, &st.tuple, &new_page)) return false;
  if (prefetch_input_pages && new_page) {
    mm.Prefetch(ctx.cursor.CurrentPageData(), ctx.cursor.page_size());
  }
  mm.Read(slot, sizeof(SlottedPage::Slot));
  st.length = slot->length;
  uint32_t key;
  mm.Read(st.tuple, 4);
  std::memcpy(&key, st.tuple, 4);
  st.hash = HashKey32(key);
  mm.Busy(cfg.cost_hash);
  uint32_t p = (st.hash / ctx.hash_divisor) % ctx.num_partitions;
  mm.Busy(cfg.cost_hash);  // the partition-number integer divide
  st.sink = ctx.sinks->sink(p);
  st.ResetForTuple();
  if (prefetch) mm.Prefetch(st.sink, sizeof(PartitionSink));
  return true;
}

/// Code 1 of partitioning: visit the sink descriptor and claim space in
/// the active output page, prefetching the tuple destination and slot
/// entry that stage 2 will write. Returns false when the page is full —
/// the caller applies its scheme's conflict protocol (§6).
template <typename MM>
inline bool PartitionStage1(PartitionContext<MM>& ctx, PartitionState& st,
                            bool prefetch) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  mm.Read(st.sink, sizeof(PartitionSink));
  mm.Busy(cfg.cost_slot_bookkeeping);
  st.dst = ctx.sinks->TryAlloc(st.sink, st.length, st.hash, &st.slot);
  bool full = (st.dst == nullptr);
  mm.Branch(kBranchBufferFull, full);
  if (full) return false;
  mm.Write(st.sink, sizeof(PartitionSink));
  ++st.sink->pending;
  st.copy_pending = true;
  if (prefetch) {
    mm.Prefetch(st.dst, st.length);
    mm.Prefetch(st.slot, sizeof(SlottedPage::Slot));
  }
  return true;
}

/// Code 2 of partitioning: copy the tuple into the output page (the slot
/// entry itself was written at claim time; the paper likewise splits the
/// buffer update from the bulk copy).
template <typename MM>
inline void PartitionStage2(PartitionContext<MM>& ctx, PartitionState& st) {
  if (!st.copy_pending) return;
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  std::memcpy(st.dst, st.tuple, st.length);
  mm.Read(st.tuple, st.length);
  mm.Write(st.dst, st.length);
  mm.Write(st.slot, sizeof(SlottedPage::Slot));
  mm.Busy(uint32_t(cfg.cost_tuple_copy_per_line *
                   ((st.length + kCacheLineSize - 1) / kCacheLineSize)));
  --st.sink->pending;
  st.copy_pending = false;
}

/// Writes out a full page with simulator accounting: the page header
/// write plus the descriptor reset.
template <typename MM>
inline void AccountedFlush(PartitionContext<MM>& ctx, PartitionSink* s) {
  MM& mm = *ctx.mm;
  mm.Write(s->page, sizeof(SlottedPage::PageHeader));
  mm.Busy(mm.config().cost_slot_bookkeeping);
  ctx.sinks->Flush(s);
}

/// Serial insert used by the baseline/simple schemes and by the conflict
/// fallback paths: flushes the full page on the spot (safe because no
/// earlier copies are outstanding when it is called).
template <typename MM>
inline void PartitionInsertSerial(PartitionContext<MM>& ctx,
                                  PartitionState& st) {
  if (!PartitionStage1(ctx, st, /*prefetch=*/false)) {
    HJ_CHECK(st.sink->pending == 0);
    AccountedFlush(ctx, st.sink);
    bool ok = PartitionStage1(ctx, st, false);
    HJ_CHECK(ok);
  }
  PartitionStage2(ctx, st);
}

/// Partitioning as a pipeline Op (join/pipeline.h): k = 2 dependent
/// references — the sink descriptor, the output slot. A full output page
/// is a conflict (§6): with no copies into it in flight it is written out
/// and the claim retried inline; otherwise the tuple is delayed (group),
/// queued on the sink (SPP) or retried (coro) until the copies drain.
template <typename MM>
struct PartitionOp {
  using State = PartitionState;
  static constexpr uint32_t kStages = 2;

  explicit PartitionOp(PartitionContext<MM>& c) : ctx(c) {}

  bool Begin(PartitionState& st, bool prefetch) {
    return PartitionStage0(ctx, st, prefetch,
                           /*prefetch_input_pages=*/prefetch);
  }
  template <uint32_t S>
  bool Stage(PartitionState& st, uint32_t) {
    if constexpr (S == 1) {
      return PartitionStage1(ctx, st, /*prefetch=*/true);
    } else {
      PartitionStage2(ctx, st);
      return true;
    }
  }
  void Serial(PartitionState& st) { PartitionInsertSerial(ctx, st); }

  bool Resolve(PartitionState& st) {
    if (st.sink->pending != 0) return false;
    AccountedFlush(ctx, st.sink);
    bool ok = PartitionStage1(ctx, st, /*prefetch=*/true);
    HJ_CHECK(ok);
    return true;
  }
  /// Appends states[slot] to its sink's waiting queue.
  void Park(PartitionState* states, uint32_t slot) {
    PartitionState& st = states[slot];
    st.next_waiting = st.sink->waiting_head;
    st.sink->waiting_head = int32_t(slot);
  }
  /// The copy that drains the sink's `pending` to zero lets the waiters
  /// flush the page and insert serially.
  template <typename F>
  void Wake(PartitionState* states, PartitionState& st, F&& done) {
    PartitionSink* sink = st.sink;
    while (sink->pending == 0 && sink->waiting_head >= 0) {
      PartitionState& ws = states[sink->waiting_head];
      sink->waiting_head = ws.next_waiting;
      ws.next_waiting = -1;
      done(ws);
    }
  }

  PartitionContext<MM>& ctx;
};

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_PARTITION_KERNELS_H_
