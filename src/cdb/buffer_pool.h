// A real LRU buffer pool used by the simulated engine.
//
// The engine streams sampled page accesses through this structure to obtain
// an *emergent* hit ratio (rather than a closed-form one), so that buffer
// pool sizing shows the realistic concave improvement curve the tuners must
// discover, including skew effects (a small pool still captures a Zipfian
// head) and working-set plateaus.
//
// Storage is a flat intrusive LRU (common::FlatLru): recency links are
// uint32 index arrays over a slab sized to the capacity, and the page -> slot
// index is an open-addressing hash reserved so it never grows. An Access is
// allocation-free, and `Reset(capacity, prewarm)` lets one pool instance be
// reused across engine evaluations, reusing the slabs whenever the new
// capacity fits (`slab_reuses()` counts how often that fast path was
// taken). The observable hit/miss/evict/flush sequence is bit-identical to
// the previous std::list + std::unordered_map implementation — pinned by
// the equivalence tests in tests/cdb/buffer_pool_test.cc.

#ifndef HUNTER_CDB_BUFFER_POOL_H_
#define HUNTER_CDB_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

#include "common/flat_lru.h"

namespace hunter::cdb {

class BufferPool {
 public:
  explicit BufferPool(uint64_t capacity_pages) { Reset(capacity_pages, 0); }

  // Empties the pool and re-sizes it for a new run, reusing the slabs when
  // the capacity fits. All counters (including dirty state) restart from
  // zero — equivalent to constructing a fresh pool, without the allocation.
  // The emptied pool is then pre-warmed with the clean pages
  // [0, min(prewarm_pages, capacity)), page 0 warmest and every prewarmed
  // page colder than live traffic — the CDB warm-up function that reloads
  // the buffer pool from disk after a restart (§5).
  void Reset(uint64_t capacity_pages, uint64_t prewarm_pages);

  // Touches a page: returns true on hit. On miss, the page is installed and
  // the LRU victim evicted (a dirty victim counts as a flush-on-evict).
  // `make_dirty` marks the page dirty (a write access). Defined inline: the
  // engine's replay loop is a tight sequence of these calls and the call
  // boundary was a measurable share of the per-access cost.
  // hunterlint: hot
  bool Access(uint64_t page_id, bool make_dirty) {
    const uint32_t slot = lru_.Find(page_id);
    if (slot != common::FlatLru::kNil) {
      ++hits_;
      lru_.MoveToFront(slot);
      if (make_dirty && dirty_[slot] == 0) {
        dirty_[slot] = 1;
        ++dirty_count_;
      }
      return true;
    }
    ++misses_;
    uint32_t fresh;
    if (lru_.size() >= capacity_) {
      // Fused evict + insert: account the victim, then reuse its slot for
      // the incoming page.
      const uint32_t victim = lru_.back();
      if (dirty_[victim] != 0) {
        ++dirty_evictions_;
        --dirty_count_;
      }
      fresh = lru_.ReplaceBack(page_id);
    } else {
      fresh = lru_.InsertFront(page_id);
    }
    dirty_[fresh] = make_dirty ? 1 : 0;
    if (make_dirty) ++dirty_count_;
    return false;
  }

  // Background flushing: cleans up to `max_pages` dirty pages (oldest
  // first), returning how many were cleaned.
  uint64_t FlushDirty(uint64_t max_pages);

  uint64_t capacity() const { return capacity_; }
  uint64_t resident_pages() const { return lru_.size(); }
  uint64_t dirty_pages() const { return dirty_count_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t dirty_evictions() const { return dirty_evictions_; }

  // Lifetime reuse accounting (not touched by Reset/ResetCounters): how
  // many times the pool was re-armed, and how many of those reused the
  // existing slabs without reallocating.
  uint64_t resets() const { return resets_; }
  uint64_t slab_reuses() const { return slab_reuses_; }

  double HitRatio() const;
  double DirtyFraction() const;

  void ResetCounters();

 private:
  uint64_t capacity_ = 1;
  common::FlatLru lru_;
  std::vector<uint8_t> dirty_;  // per-slot dirty bit, parallel to the slab
  uint64_t dirty_count_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t dirty_evictions_ = 0;
  uint64_t resets_ = 0;
  uint64_t slab_reuses_ = 0;
};

}  // namespace hunter::cdb

#endif  // HUNTER_CDB_BUFFER_POOL_H_
