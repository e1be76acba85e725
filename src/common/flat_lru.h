// Intrusive array-backed LRU list with an open-addressing key index.
//
// Replaces the `std::list<uint64_t>` + `std::unordered_map` pair the buffer
// pool was built on: slots live in a fixed slab sized to the capacity, the
// recency list is threaded through prev/next uint32 index arrays (no node
// allocation, no pointer chasing across the heap), and key -> slot lookup
// goes through FlatHashMap64. A full Access (lookup + splice to front) is a
// handful of contiguous array reads.
//
// The list only grows until it is full and then replaces its victim in
// place (ReplaceBack); nothing is ever removed. So slots are handed out in
// order 0, 1, 2, ..., and slots [0, size) are always exactly the live ones,
// each holding a distinct key.
//
// Capacities of at most kScanSlots skip the hash index altogether: the key
// slab fits in one or two cache lines' worth of vector compares, so lookup
// is a branchless linear scan over the keys below the fill line. This is
// the common case for the engine's default buffer pools (tens of pages),
// where a miss previously paid three probe sequences (find, erase victim
// with backward shift, re-probe to insert) per eviction. Which mode is
// active is not observable: Find/Insert/Replace semantics are identical in
// both.
//
// `Reset(capacity)` reinitializes the structure for a new run, reusing the
// slabs whenever they are already big enough — the engine keeps one pool
// alive across evaluations, so steady-state resets allocate nothing.
//
// Slots are identified by uint32 indices; `kNil` is the null link. The
// caller owns any per-slot payload (e.g. the pool's dirty bits) in parallel
// arrays indexed by slot.

#ifndef HUNTER_COMMON_FLAT_LRU_H_
#define HUNTER_COMMON_FLAT_LRU_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cpu.h"
#include "common/flat_hash.h"

namespace hunter::common {

// The scan-mode lookup kernels (scalar + runtime-dispatched AVX2 lanes)
// live in common/cpu.h as simd::ScanFindDense, next to the one cached CPUID
// query every dispatch site in the tree shares.

class FlatLru {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  // Largest capacity served by the linear-scan index (1 KiB of keys).
  static constexpr uint32_t kScanSlots = 128;

  explicit FlatLru(uint64_t capacity = 1) { Reset(capacity); }

  // Empties the list and re-sizes the slab for `capacity` slots. Returns
  // true when the existing slabs were reused without reallocation.
  bool Reset(uint64_t capacity) {
    const uint32_t cap = static_cast<uint32_t>(
        std::min<uint64_t>(std::max<uint64_t>(1, capacity), kNil - 1));
    capacity_ = cap;
    scan_ = cap <= kScanSlots;
    bool reused = true;
    if (!scan_) reused = index_.Reset(cap);
    if (keys_.size() < cap) {
      keys_.resize(cap);
      prev_.resize(cap);
      next_.resize(cap);
      reused = false;
    }
    head_ = kNil;
    tail_ = kNil;
    size_ = 0;
    return reused;
  }

  uint64_t capacity() const { return capacity_; }
  uint64_t size() const { return size_; }

  // Slot holding `key`, or kNil if absent.
  uint32_t Find(uint64_t key) const {
    if (scan_) {
      // Live keys are unique and fill [0, size_), so the scan's unique
      // match (or kNil) is the same answer the hash index would give.
      return simd::ScanFindDense(keys_.data(), size_, key);
    }
    const uint32_t* slot = index_.Find(key);
    return slot == nullptr ? kNil : *slot;
  }

  uint64_t key(uint32_t slot) const { return keys_[slot]; }
  uint32_t front() const { return head_; }
  uint32_t back() const { return tail_; }
  // Next-warmer slot (toward the front/MRU end); kNil past the front.
  uint32_t Warmer(uint32_t slot) const { return prev_[slot]; }

  // Splices an existing slot to the front (most-recently-used position).
  void MoveToFront(uint32_t slot) {
    if (head_ == slot) return;
    // Unlink.
    const uint32_t p = prev_[slot];
    const uint32_t n = next_[slot];
    next_[p] = n;  // p != kNil because slot != head_
    if (n != kNil) {
      prev_[n] = p;
    } else {
      tail_ = p;
    }
    // Relink at the front.
    prev_[slot] = kNil;
    next_[slot] = head_;
    prev_[head_] = slot;  // head_ != kNil because the list is non-empty
    head_ = slot;
  }

  // Inserts an absent key at the front; returns its slot. The caller must
  // guarantee the key is absent and the list is not full.
  uint32_t InsertFront(uint64_t key_value) {
    const uint32_t slot = size_++;
    keys_[slot] = key_value;
    prev_[slot] = kNil;
    next_[slot] = head_;
    if (head_ != kNil) {
      prev_[head_] = slot;
    } else {
      tail_ = slot;
    }
    head_ = slot;
    if (!scan_) index_.At(key_value) = slot;
    return slot;
  }

  // Inserts an absent key at the back (coldest position); returns its slot.
  // Same preconditions as InsertFront.
  uint32_t InsertBack(uint64_t key_value) {
    const uint32_t slot = size_++;
    keys_[slot] = key_value;
    next_[slot] = kNil;
    prev_[slot] = tail_;
    if (tail_ != kNil) {
      next_[tail_] = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
    if (!scan_) index_.At(key_value) = slot;
    return slot;
  }

  // Evicts the back entry and installs `key_value` at the front in its
  // slot, in one step. The list must be non-empty and `key_value` absent.
  // Returns the reused slot (the victim's key is gone from the slab).
  uint32_t ReplaceBack(uint64_t key_value) {
    const uint32_t slot = tail_;
    if (!scan_) {
      index_.Erase(keys_[slot]);
      index_.At(key_value) = slot;
    }
    keys_[slot] = key_value;
    if (head_ != slot) {
      // Unlink from the back, relink at the front.
      tail_ = prev_[slot];
      next_[tail_] = kNil;
      prev_[slot] = kNil;
      next_[slot] = head_;
      prev_[head_] = slot;
      head_ = slot;
    }
    return slot;
  }

 private:
  FlatHashMap64<uint32_t> index_;  // key -> slot; reserved so it never grows
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> prev_;  // toward the front (warmer)
  std::vector<uint32_t> next_;  // toward the back (colder)
  bool scan_ = true;
  uint32_t capacity_ = 0;
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint32_t size_ = 0;
};

}  // namespace hunter::common

#endif  // HUNTER_COMMON_FLAT_LRU_H_
