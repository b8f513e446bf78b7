#ifndef HASHJOIN_STORAGE_RELATION_H_
#define HASHJOIN_STORAGE_RELATION_H_

#include <cstdint>
#include <vector>

#include "storage/schema.h"
#include "storage/slotted_page.h"
#include "util/aligned.h"

namespace hashjoin {

/// An in-memory paged relation: a schema plus a sequence of slotted
/// pages. The CPU-performance experiments keep relations and intermediate
/// partitions memory-resident (the paper stores them as files "for
/// simplicity" and measures user-mode CPU time only; the I/O path is
/// exercised separately by the buffer manager and Figure 9).
///
/// Pages are carved from page-aligned chunks that double from one page
/// up to kMaxChunkPages, so the heap pays one alignment gap per chunk
/// instead of one per page. Every page stays aligned to page_size (the
/// simulator's TLB model sees real page boundaries). `chunks_` owns the
/// memory; `pages_` lists the pages in relation order.
class Relation {
 public:
  /// Chunk size cap in pages. 8 pages of the default 8 KiB (64 KiB) stay
  /// below glibc's default 128 KiB mmap threshold; a 64-page cap raised
  /// the peak RSS of many small relations (zipf_replay) by about 11%.
  static constexpr uint32_t kMaxChunkPages = 8;

  explicit Relation(Schema schema, uint32_t page_size = kDefaultPageSize);

  /// A moved-from relation is empty and holds no chunk: appending to it
  /// starts a fresh chunk, never one the target now owns.
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  /// Appends a tuple, starting a new page when the current one is full.
  void Append(const void* data, uint16_t length, uint32_t hash_code = 0);

  /// Reserves space for a tuple and returns a writable pointer to it.
  uint8_t* AllocAppend(uint16_t length, uint32_t hash_code = 0);

  /// Takes ownership of an already-formatted page (it becomes a chunk of
  /// its own).
  void AdoptPage(AlignedBuffer<uint8_t> page);

  /// Copies an already-formatted page's bytes in (the partition phase
  /// "writes out" full output buffers this way, mirroring an async disk
  /// write that recycles the caller's buffer).
  void AppendCopiedPage(const void* page_bytes);

  /// Address where the next appended tuple's bytes will start if it fits
  /// in the current page (used only as a prefetch hint; a page switch may
  /// place the tuple elsewhere). Null if no page is open.
  const uint8_t* PeekAppendAddr() const;

  const Schema& schema() const { return schema_; }
  uint32_t page_size() const { return page_size_; }
  size_t num_pages() const { return pages_.size(); }
  uint64_t num_tuples() const { return num_tuples_; }

  /// Total tuple payload bytes (excluding page headers/slots).
  uint64_t data_bytes() const { return data_bytes_; }

  SlottedPage page(size_t i) { return SlottedPage::Attach(pages_[i]); }
  const SlottedPage page(size_t i) const {
    return SlottedPage::Attach(pages_[i]);
  }

  /// Calls f(tuple_ptr, length, hash_code) for every tuple in order.
  template <typename F>
  void ForEachTuple(F&& f) const {
    for (size_t p = 0; p < pages_.size(); ++p) {
      const SlottedPage pg = page(p);
      for (int s = 0; s < pg.slot_count(); ++s) {
        uint16_t len = 0;
        const uint8_t* t = pg.GetTuple(s, &len);
        f(t, len, pg.GetHashCode(s));
      }
    }
  }

  /// Moves every page of `other` to the end of this relation (schemas
  /// must match), leaving `other` empty. The parallel executor uses this
  /// to concatenate per-worker output sinks without copying. Later
  /// appends carve from this relation's own chunks, never from absorbed
  /// ones.
  void Absorb(Relation* other);

  /// Drops all pages and frees their chunks.
  void Clear();

 private:
  /// Returns the next unused page of the newest own chunk, allocating a
  /// new chunk when it is used up.
  uint8_t* CarvePage();
  void AddPage();
  /// Accounts an already-formatted page's tuples and inserts it, keeping
  /// an open append page last.
  void InsertFormattedPage(uint8_t* page);
  /// Moves `other`'s pages, chunks and chunk cursor here and leaves it
  /// empty (the move operations).
  void TakePagesFrom(Relation* other);

  Schema schema_;
  uint32_t page_size_;
  std::vector<uint8_t*> pages_;
  std::vector<AlignedBuffer<uint8_t>> chunks_;
  uint8_t* chunk_next_ = nullptr;  // next uncarved page, or null
  uint32_t chunk_free_pages_ = 0;  // uncarved pages from chunk_next_ on
  uint32_t next_chunk_pages_ = 1;  // size of the next chunk to allocate
  uint64_t num_tuples_ = 0;
  uint64_t data_bytes_ = 0;
  bool append_page_open_ = false;  // last page is the AllocAppend target
};

}  // namespace hashjoin

#endif  // HASHJOIN_STORAGE_RELATION_H_
