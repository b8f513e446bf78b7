#include "storage/relation.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace hashjoin {

Relation::Relation(Schema schema, uint32_t page_size)
    : schema_(std::move(schema)), page_size_(page_size) {
  HJ_CHECK(page_size_ >= 256);
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)), page_size_(other.page_size_) {
  TakePagesFrom(&other);
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  page_size_ = other.page_size_;
  TakePagesFrom(&other);
  return *this;
}

void Relation::TakePagesFrom(Relation* other) {
  pages_ = std::move(other->pages_);
  chunks_ = std::move(other->chunks_);
  chunk_next_ = other->chunk_next_;
  chunk_free_pages_ = other->chunk_free_pages_;
  next_chunk_pages_ = other->next_chunk_pages_;
  num_tuples_ = other->num_tuples_;
  data_bytes_ = other->data_bytes_;
  append_page_open_ = other->append_page_open_;
  other->Clear();
}

uint8_t* Relation::CarvePage() {
  if (chunk_free_pages_ == 0) {
    // Page-aligned so the simulator's TLB model sees realistic page
    // boundaries.
    void* raw = AlignedAlloc(size_t(next_chunk_pages_) * page_size_,
                             page_size_);
    chunks_.emplace_back(static_cast<uint8_t*>(raw));
    chunk_next_ = chunks_.back().get();
    chunk_free_pages_ = next_chunk_pages_;
    next_chunk_pages_ = std::min(2 * next_chunk_pages_, kMaxChunkPages);
  }
  uint8_t* page = chunk_next_;
  chunk_next_ += page_size_;
  --chunk_free_pages_;
  return page;
}

void Relation::AddPage() {
  uint8_t* page = CarvePage();
  SlottedPage::Format(page, page_size_);
  pages_.push_back(page);
  append_page_open_ = true;
}

uint8_t* Relation::AllocAppend(uint16_t length, uint32_t hash_code) {
  if (pages_.empty()) AddPage();
  SlottedPage pg = SlottedPage::Attach(pages_.back());
  uint8_t* dst = pg.AllocTuple(length, hash_code, nullptr);
  if (dst == nullptr) {
    AddPage();
    pg = SlottedPage::Attach(pages_.back());
    dst = pg.AllocTuple(length, hash_code, nullptr);
    HJ_CHECK(dst != nullptr) << "tuple larger than a page";
  }
  ++num_tuples_;
  data_bytes_ += length;
  return dst;
}

void Relation::Append(const void* data, uint16_t length,
                      uint32_t hash_code) {
  uint8_t* dst = AllocAppend(length, hash_code);
  std::memcpy(dst, data, length);
}

void Relation::InsertFormattedPage(uint8_t* page) {
  SlottedPage pg = SlottedPage::Attach(page);
  HJ_CHECK(pg.page_size() == page_size_);
  num_tuples_ += pg.slot_count();
  for (int s = 0; s < pg.slot_count(); ++s) {
    uint16_t len = 0;
    pg.GetTuple(s, &len);
    data_bytes_ += len;
  }
  // Keep the open append page (if any) last so AllocAppend keeps
  // filling it; otherwise inserted pages append in arrival order.
  if (append_page_open_ && !pages_.empty()) {
    pages_.insert(pages_.end() - 1, page);
  } else {
    pages_.push_back(page);
  }
}

void Relation::AdoptPage(AlignedBuffer<uint8_t> page) {
  uint8_t* raw = page.get();
  chunks_.push_back(std::move(page));
  InsertFormattedPage(raw);
}

void Relation::AppendCopiedPage(const void* page_bytes) {
  const SlottedPage src =
      SlottedPage::Attach(const_cast<void*>(page_bytes));
  HJ_CHECK(src.page_size() == page_size_);
  uint8_t* page = CarvePage();
  std::memcpy(page, page_bytes, page_size_);
  InsertFormattedPage(page);
}

const uint8_t* Relation::PeekAppendAddr() const {
  if (pages_.empty() || !append_page_open_) return nullptr;
  const SlottedPage pg = page(pages_.size() - 1);
  // Mirrors SlottedPage::AllocTuple's bump pointer.
  return pg.data() +
         reinterpret_cast<const SlottedPage::PageHeader*>(pg.data())
             ->free_offset;
}

void Relation::Absorb(Relation* other) {
  HJ_CHECK(other != this);
  HJ_CHECK(other->page_size_ == page_size_);
  // Close our open append page: absorbed pages land after it, so it can
  // no longer be the AllocAppend target. Our chunk cursor stays on our
  // own newest chunk, so later appends never touch an absorbed chunk.
  append_page_open_ = false;
  pages_.insert(pages_.end(), other->pages_.begin(), other->pages_.end());
  for (auto& chunk : other->chunks_) chunks_.push_back(std::move(chunk));
  num_tuples_ += other->num_tuples_;
  data_bytes_ += other->data_bytes_;
  other->Clear();
}

void Relation::Clear() {
  pages_.clear();
  chunks_.clear();
  chunk_next_ = nullptr;
  chunk_free_pages_ = 0;
  next_chunk_pages_ = 1;
  num_tuples_ = 0;
  data_bytes_ = 0;
  append_page_open_ = false;
}

}  // namespace hashjoin
