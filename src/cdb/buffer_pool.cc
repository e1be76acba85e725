#include "cdb/buffer_pool.h"

#include <algorithm>

namespace hunter::cdb {

void BufferPool::Reset(uint64_t capacity_pages, uint64_t prewarm_pages) {
  capacity_ = std::max<uint64_t>(1, capacity_pages);
  bool reused = lru_.Reset(capacity_);
  if (dirty_.size() < capacity_) {
    // Stale dirty bits are never read: every insert writes its slot's bit
    // before any read, so the slab only needs to be large enough.
    dirty_.resize(capacity_);
    reused = false;
  }
  dirty_count_ = 0;
  hits_ = 0;
  misses_ = 0;
  dirty_evictions_ = 0;
  ++resets_;
  if (reused) ++slab_reuses_;
  // The pool is empty and the pages are distinct, so each goes straight to
  // the back: no lookup, no eviction.
  const uint64_t prewarm = std::min(prewarm_pages, capacity_);
  for (uint64_t page = 0; page < prewarm; ++page) {
    dirty_[lru_.InsertBack(page)] = 0;
  }
}

// hunterlint: hot
uint64_t BufferPool::FlushDirty(uint64_t max_pages) {
  uint64_t cleaned = 0;
  // Clean from the cold end of the LRU, as page cleaners do. Stopping once
  // no dirty pages remain skips a provably no-op tail walk.
  for (uint32_t slot = lru_.back();
       slot != common::FlatLru::kNil && cleaned < max_pages &&
       dirty_count_ != 0;
       slot = lru_.Warmer(slot)) {
    if (dirty_[slot] != 0) {
      dirty_[slot] = 0;
      --dirty_count_;
      ++cleaned;
    }
  }
  return cleaned;
}

double BufferPool::HitRatio() const {
  const uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

double BufferPool::DirtyFraction() const {
  return lru_.size() == 0
             ? 0.0
             : static_cast<double>(dirty_count_) /
                   static_cast<double>(lru_.size());
}

void BufferPool::ResetCounters() {
  hits_ = 0;
  misses_ = 0;
  dirty_evictions_ = 0;
}

}  // namespace hunter::cdb
