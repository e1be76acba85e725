#include "cdb/buffer_pool.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/cdb/seed_engine_ref.h"

namespace hunter::cdb {
namespace {

TEST(BufferPoolTest, ColdMissesThenHits) {
  BufferPool pool(10);
  EXPECT_FALSE(pool.Access(1, false));
  EXPECT_TRUE(pool.Access(1, false));
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(2);
  pool.Access(1, false);
  pool.Access(2, false);
  pool.Access(1, false);   // 1 now most recent
  pool.Access(3, false);   // evicts 2
  EXPECT_TRUE(pool.Access(1, false));
  EXPECT_FALSE(pool.Access(2, false));
}

TEST(BufferPoolTest, CapacityNeverExceeded) {
  BufferPool pool(5);
  for (uint64_t p = 0; p < 100; ++p) pool.Access(p, false);
  EXPECT_EQ(pool.resident_pages(), 5u);
}

TEST(BufferPoolTest, DirtyTrackingAndFlush) {
  BufferPool pool(10);
  pool.Access(1, true);
  pool.Access(2, true);
  pool.Access(3, false);
  EXPECT_EQ(pool.dirty_pages(), 2u);
  EXPECT_DOUBLE_EQ(pool.DirtyFraction(), 2.0 / 3.0);
  EXPECT_EQ(pool.FlushDirty(1), 1u);
  EXPECT_EQ(pool.dirty_pages(), 1u);
  EXPECT_EQ(pool.FlushDirty(10), 1u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
}

TEST(BufferPoolTest, DirtyEvictionCounted) {
  BufferPool pool(1);
  pool.Access(1, true);
  pool.Access(2, false);  // evicts dirty page 1
  EXPECT_EQ(pool.dirty_evictions(), 1u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
}

TEST(BufferPoolTest, RewriteDoesNotDoubleCountDirty) {
  BufferPool pool(4);
  pool.Access(1, true);
  pool.Access(1, true);
  EXPECT_EQ(pool.dirty_pages(), 1u);
}

TEST(BufferPoolTest, HitRatioGrowsWithCapacityUnderZipf) {
  common::Rng rng(1);
  auto measure = [&](uint64_t capacity) {
    BufferPool pool(capacity);
    common::Rng local(42);
    const common::ZipfTable pages(4096, 0.8);
    for (int i = 0; i < 5000; ++i) pool.Access(pages.Sample(&local), false);
    pool.ResetCounters();
    for (int i = 0; i < 5000; ++i) pool.Access(pages.Sample(&local), false);
    return pool.HitRatio();
  };
  const double small = measure(64);
  const double medium = measure(512);
  const double large = measure(4096);
  EXPECT_LT(small, medium);
  EXPECT_LT(medium, large);
  EXPECT_GT(large, 0.80);  // most of the working set resident
  EXPECT_GT(small, 0.15);  // Zipf head still caught by a small pool
}

TEST(BufferPoolTest, PrewarmMakesHotPagesResident) {
  BufferPool pool(100);
  pool.Reset(100, 100);
  EXPECT_EQ(pool.resident_pages(), 100u);
  EXPECT_TRUE(pool.Access(0, false));
  EXPECT_TRUE(pool.Access(99, false));
  EXPECT_FALSE(pool.Access(100, false));
}

TEST(BufferPoolTest, PrewarmRespectsCapacity) {
  BufferPool pool(10);
  pool.Reset(10, 100);
  EXPECT_EQ(pool.resident_pages(), 10u);
}

TEST(BufferPoolTest, ResetCountersKeepsContents) {
  BufferPool pool(4);
  pool.Access(7, false);
  pool.ResetCounters();
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_TRUE(pool.Access(7, false));
}

TEST(BufferPoolTest, ZeroCapacityClampedToOne) {
  BufferPool pool(0);
  EXPECT_EQ(pool.capacity(), 1u);
  pool.Access(1, false);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

// ---------------------------------------------------------------------------
// Golden equivalence against the seed std::list + std::unordered_map pool
// (tests/cdb/seed_engine_ref.h). The flat intrusive LRU must reproduce the
// seed's hit/miss booleans and counter trajectories exactly, access by
// access, under adversarial streams.
// ---------------------------------------------------------------------------

// Drives both pools through the same access/flush stream, asserting the
// per-access hit/miss boolean and all observable counters after every step.
void ReplayAndCompare(BufferPool* pool, seedref::SeedBufferPool* seed,
                      common::Rng* rng, uint64_t page_space, double dirty_prob,
                      int steps, uint64_t flush_every, uint64_t flush_budget,
                      const std::string& context) {
  const common::ZipfTable pages(page_space, 0.9);
  for (int i = 0; i < steps; ++i) {
    const uint64_t page = pages.Sample(rng);
    const bool dirty = rng->Bernoulli(dirty_prob);
    const bool want = seed->Access(page, dirty);
    const bool got = pool->Access(page, dirty);
    ASSERT_EQ(want, got) << context << " step " << i;
    if (flush_every > 0 && static_cast<uint64_t>(i) % flush_every == 0) {
      ASSERT_EQ(seed->FlushDirty(flush_budget), pool->FlushDirty(flush_budget))
          << context << " flush at step " << i;
    }
    ASSERT_EQ(seed->hits(), pool->hits()) << context << " step " << i;
    ASSERT_EQ(seed->misses(), pool->misses()) << context << " step " << i;
    ASSERT_EQ(seed->dirty_pages(), pool->dirty_pages())
        << context << " step " << i;
    ASSERT_EQ(seed->dirty_evictions(), pool->dirty_evictions())
        << context << " step " << i;
    ASSERT_EQ(seed->resident_pages(), pool->resident_pages())
        << context << " step " << i;
  }
  EXPECT_DOUBLE_EQ(seed->HitRatio(), pool->HitRatio()) << context;
  EXPECT_DOUBLE_EQ(seed->DirtyFraction(), pool->DirtyFraction()) << context;
}

TEST(BufferPoolEquivalenceTest, AdversarialStreamsMatchSeedExactly) {
  struct Scenario {
    const char* name;
    uint64_t capacity;
    uint64_t page_space;
    double dirty_prob;
    uint64_t flush_every;
    uint64_t flush_budget;
    uint64_t prewarm;
  };
  const Scenario scenarios[] = {
      // Thrashing single slot: every distinct page evicts.
      {"capacity one", 1, 64, 0.5, 0, 0, 0},
      // Pool larger than the page space: no evictions ever.
      {"oversized pool", 4096, 256, 0.3, 0, 0, 0},
      // The engine's shape: prewarmed pool, periodic budgeted flushing.
      {"prewarmed with flushing", 512, 2048, 0.4, 256, 8, 512},
      // Tight pool with aggressive flush interleaving.
      {"flush every step", 16, 128, 0.9, 1, 2, 16},
      // Prewarm beyond capacity (clamped to the capacity).
      {"prewarm overflow", 32, 1024, 0.2, 64, 4, 1000},
  };
  for (const Scenario& s : scenarios) {
    BufferPool pool(1);
    pool.Reset(s.capacity, s.prewarm);
    seedref::SeedBufferPool seed(s.capacity);
    seed.Prewarm(s.prewarm);
    common::Rng rng(1234);
    ReplayAndCompare(&pool, &seed, &rng, s.page_space, s.dirty_prob, 4000,
                     s.flush_every, s.flush_budget, s.name);
  }
}

TEST(BufferPoolEquivalenceTest, ResetReplaysLikeAFreshSeedPool) {
  // One pool driven through Reset cycles of varying capacities, cold and
  // prewarmed, must behave like a factory-fresh seed pool of each capacity
  // prewarmed the same way — reused slabs carry no observable state across
  // cycles (on both sides of FlatLru::kScanSlots).
  BufferPool pool(2048);  // sizes the slabs once, up front
  const struct {
    uint64_t capacity;
    uint64_t prewarm;
  } cycles[] = {{2048, 0}, {64, 64}, {1, 0},
                {512, 300}, {64, 0}, {2048, 5000}};
  const uint64_t reuses_before = pool.slab_reuses();
  uint64_t expected_resets = pool.resets();
  for (const auto& [capacity, prewarm] : cycles) {
    pool.Reset(capacity, prewarm);
    ++expected_resets;
    seedref::SeedBufferPool seed(capacity);
    seed.Prewarm(prewarm);
    EXPECT_EQ(pool.resets(), expected_resets);
    EXPECT_EQ(pool.capacity(), capacity);
    EXPECT_EQ(pool.resident_pages(), seed.resident_pages());
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.misses(), 0u);
    EXPECT_EQ(pool.dirty_pages(), 0u);
    common::Rng rng(42 + capacity);
    ReplayAndCompare(&pool, &seed, &rng, 4 * capacity, 0.5, 3000, 128, 4,
                     "reset to " + std::to_string(capacity));
  }
  // Every re-arm fits inside the original 2048-page slabs.
  EXPECT_EQ(pool.slab_reuses() - reuses_before,
            sizeof(cycles) / sizeof(cycles[0]));
}

}  // namespace
}  // namespace hunter::cdb
