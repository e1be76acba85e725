#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_hash.h"
#include "common/flat_lru.h"
#include "common/rng.h"

namespace hunter::common {
namespace {

TEST(FlatHashMap64Test, InsertFindErase) {
  FlatHashMap64<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);

  map.At(42) = 7;
  map.At(43) = 8;
  ASSERT_NE(map.Find(42), nullptr);
  EXPECT_EQ(*map.Find(42), 7);
  EXPECT_EQ(*map.Find(43), 8);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_TRUE(map.Erase(42));
  EXPECT_FALSE(map.Erase(42));
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_EQ(*map.Find(43), 8);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap64Test, AtDefaultInsertsAndIsStableAcrossGrowth) {
  FlatHashMap64<uint64_t> map;
  for (uint64_t k = 0; k < 1000; ++k) map.At(k) = k * 3;
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k * 3);
  }
  EXPECT_EQ(map.Find(1000), nullptr);
}

TEST(FlatHashMap64Test, MatchesStdMapUnderRandomOps) {
  FlatHashMap64<uint32_t> flat;
  std::map<uint64_t, uint32_t> ref;
  Rng rng(0xF1A7);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.NextU64() % 257;  // force collisions + reuse
    const double which = rng.Uniform();
    if (which < 0.5) {
      const uint32_t value = static_cast<uint32_t>(rng.NextU64());
      flat.At(key) = value;
      ref[key] = value;
    } else if (which < 0.8) {
      const uint32_t* found = flat.Find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    } else {
      EXPECT_EQ(flat.Erase(key), ref.erase(key) > 0) << "op " << op;
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
}

TEST(FlatHashMap64Test, ResetReusesSlab) {
  FlatHashMap64<int> map;
  EXPECT_FALSE(map.Reset(100));  // first sizing allocates
  for (uint64_t k = 0; k < 100; ++k) map.At(k) = 1;
  EXPECT_TRUE(map.Reset(100));  // same size: slab reused
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_TRUE(map.Reset(10));   // smaller: still reused
  EXPECT_FALSE(map.Reset(100000));  // bigger: must grow
}

TEST(FlatLruTest, InsertEvictOrder) {
  FlatLru lru(3);
  lru.InsertFront(10);
  lru.InsertFront(11);
  lru.InsertFront(12);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.key(lru.front()), 12u);
  EXPECT_EQ(lru.key(lru.back()), 10u);

  lru.MoveToFront(lru.Find(10));  // 10 becomes MRU; 11 is now LRU
  const uint32_t victim = lru.Find(11);
  EXPECT_EQ(lru.ReplaceBack(13), victim);  // 13 takes 11's slot, at the front
  EXPECT_EQ(lru.front(), victim);
  EXPECT_EQ(lru.Find(13), victim);
  EXPECT_EQ(lru.Find(11), FlatLru::kNil);
  EXPECT_NE(lru.Find(10), FlatLru::kNil);
  EXPECT_EQ(lru.key(lru.back()), 12u);
  EXPECT_EQ(lru.size(), 3u);
}

TEST(FlatLruTest, InsertBackIsColdest) {
  FlatLru lru(4);
  lru.InsertFront(1);
  const uint32_t slot = lru.InsertBack(2);
  EXPECT_EQ(lru.back(), slot);
  EXPECT_EQ(lru.ReplaceBack(3), slot);  // the coldest entry is the victim
  EXPECT_EQ(lru.Find(2), FlatLru::kNil);
  EXPECT_EQ(lru.key(lru.back()), 1u);
}

TEST(FlatLruTest, WalkColdToWarm) {
  FlatLru lru(4);
  for (uint64_t k = 0; k < 4; ++k) lru.InsertFront(k);
  std::vector<uint64_t> cold_to_warm;
  for (uint32_t slot = lru.back(); slot != FlatLru::kNil;
       slot = lru.Warmer(slot)) {
    cold_to_warm.push_back(lru.key(slot));
  }
  EXPECT_EQ(cold_to_warm, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(FlatLruTest, ResetReusesSlabAndClears) {
  FlatLru lru(8);
  for (uint64_t k = 0; k < 8; ++k) lru.InsertFront(k);
  EXPECT_TRUE(lru.Reset(8));
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.front(), FlatLru::kNil);
  EXPECT_EQ(lru.Find(3), FlatLru::kNil);
  EXPECT_TRUE(lru.Reset(4));    // shrink reuses
  EXPECT_FALSE(lru.Reset(16));  // growth reallocates
  for (uint64_t k = 0; k < 16; ++k) lru.InsertFront(k);
  EXPECT_EQ(lru.size(), 16u);
}

// Mirror a reference LRU (deque) through a random mixed workload, the way
// the buffer pool drives it: fill with InsertFront, then replace the victim
// in place. One capacity on each side of kScanSlots covers both indexes.
TEST(FlatLruTest, MatchesReferenceUnderRandomOps) {
  static_assert(13 <= FlatLru::kScanSlots && 200 > FlatLru::kScanSlots);
  for (const uint64_t capacity : {uint64_t{13}, uint64_t{200}}) {
    FlatLru lru(capacity);
    std::deque<uint64_t> ref;  // front = MRU
    Rng rng(0x10C4);
    for (int op = 0; op < 30000; ++op) {
      const uint64_t key = rng.NextU64() % (3 * capacity + 1);
      const uint32_t slot = lru.Find(key);
      const auto it = std::find(ref.begin(), ref.end(), key);
      ASSERT_EQ(slot != FlatLru::kNil, it != ref.end())
          << "capacity " << capacity << " op " << op;
      if (slot != FlatLru::kNil) {
        lru.MoveToFront(slot);
        ref.erase(it);
      } else if (lru.size() >= capacity) {
        const uint32_t victim = lru.back();
        EXPECT_EQ(lru.ReplaceBack(key), victim);
        ref.pop_back();
      } else {
        lru.InsertFront(key);
      }
      ref.push_front(key);
      ASSERT_EQ(lru.size(), ref.size());
      ASSERT_EQ(lru.key(lru.front()), ref.front());
      ASSERT_EQ(lru.key(lru.back()), ref.back());
      if (op % 97 == 0) {
        std::deque<uint64_t> walked;
        for (uint32_t at = lru.back(); at != FlatLru::kNil;
             at = lru.Warmer(at)) {
          walked.push_front(lru.key(at));
        }
        ASSERT_EQ(walked, ref) << "capacity " << capacity << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace hunter::common
