#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "cdb/lock_manager.h"
#include "cdb/wal.h"
#include "common/rng.h"

namespace hunter::cdb {
namespace {

LockSimConfig BaseLockConfig() {
  LockSimConfig config;
  config.num_txns = 2000;
  config.concurrency = 32;
  config.writes_per_txn = 5;
  config.hot_rows = 100000;
  config.zipf_theta = 0.8;
  config.hold_time_ms = 5.0;
  return config;
}

// One replay with a fresh row sampler and lock table.
LockSimResult SimulateFresh(const LockSimConfig& config, common::Rng* rng) {
  common::ZipfTable zipf;
  LockManager::Table table;
  return LockManager::Simulate(config, rng, &zipf, &table);
}

TEST(LockManagerTest, NoWritesNoConflicts) {
  common::Rng rng(1);
  LockSimConfig config = BaseLockConfig();
  config.writes_per_txn = 0;
  const LockSimResult result = SimulateFresh(config, &rng);
  EXPECT_DOUBLE_EQ(result.mean_wait_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.conflict_rate, 0.0);
}

TEST(LockManagerTest, HugeKeySpaceHasLowConflict) {
  common::Rng rng(2);
  LockSimConfig config = BaseLockConfig();
  config.hot_rows = 100000000;
  config.zipf_theta = 0.0;
  const LockSimResult result = SimulateFresh(config, &rng);
  EXPECT_LT(result.conflict_rate, 0.01);
}

TEST(LockManagerTest, SmallHotSetConflictsHeavily) {
  common::Rng rng(3);
  LockSimConfig config = BaseLockConfig();
  config.hot_rows = 200;
  const LockSimResult result = SimulateFresh(config, &rng);
  EXPECT_GT(result.conflict_rate, 0.2);
  EXPECT_GT(result.mean_wait_ms, 0.1);
}

TEST(LockManagerTest, ConflictGrowsWithConcurrency) {
  LockSimConfig config = BaseLockConfig();
  config.hot_rows = 5000;
  common::Rng rng_low(4), rng_high(4);
  config.concurrency = 4;
  const LockSimResult low = SimulateFresh(config, &rng_low);
  config.concurrency = 128;
  const LockSimResult high = SimulateFresh(config, &rng_high);
  EXPECT_GT(high.conflict_rate, low.conflict_rate);
}

TEST(LockManagerTest, DeadlockDetectionAvoidsTimeouts) {
  LockSimConfig config = BaseLockConfig();
  config.hot_rows = 100;
  config.zipf_theta = 0.9;
  config.lock_wait_timeout_ms = 1000.0;
  common::Rng rng_a(5), rng_b(5);
  config.deadlock_detect = true;
  const LockSimResult with_detect = SimulateFresh(config, &rng_a);
  config.deadlock_detect = false;
  const LockSimResult without = SimulateFresh(config, &rng_b);
  // Without detection, deadlocked waiters must burn the full timeout.
  EXPECT_GT(without.mean_wait_ms, with_detect.mean_wait_ms);
  EXPECT_GE(without.timeout_rate, with_detect.timeout_rate);
}

TEST(LockManagerTest, TimeoutCapsWaits) {
  LockSimConfig config = BaseLockConfig();
  config.hot_rows = 100;
  config.hold_time_ms = 1000.0;
  config.lock_wait_timeout_ms = 10.0;
  common::Rng rng(6);
  const LockSimResult result = SimulateFresh(config, &rng);
  // Mean wait cannot exceed a few timeouts' worth per txn.
  EXPECT_LT(result.mean_wait_ms, 50.0);
}

TEST(LockManagerTest, ReusedSamplerAndTableMatchFreshOnes) {
  // The engine carries one sampler and one lock table across every stress
  // test while the workload's hot_rows / zipf_theta change under them. The
  // carried pair must replay exactly like a fresh pair: same results bit
  // for bit, and the generator left at the same stream position.
  const struct {
    uint64_t hot_rows;
    double zipf_theta;
  } steps[] = {
      {100000, 0.8}, {100000, 0.8}, {100000, 0.6}, {200, 0.9},
      {5000, 0.0},   {1, 0.8},      {200, 0.9},    {1u << 24, 0.6},
  };
  common::ZipfTable zipf;
  LockManager::Table table;
  common::Rng reused_rng(77);
  common::Rng fresh_rng(77);
  for (const auto& step : steps) {
    LockSimConfig config = BaseLockConfig();
    config.num_txns = 500;
    config.hot_rows = step.hot_rows;
    config.zipf_theta = step.zipf_theta;
    const LockSimResult reused =
        LockManager::Simulate(config, &reused_rng, &zipf, &table);
    const LockSimResult fresh = SimulateFresh(config, &fresh_rng);
    const std::string where = "hot_rows=" + std::to_string(step.hot_rows) +
                              " theta=" + std::to_string(step.zipf_theta);
    // All four rates, compared as bit patterns.
    using Bits = std::array<uint64_t, 4>;
    EXPECT_EQ(std::bit_cast<Bits>(reused), std::bit_cast<Bits>(fresh))
        << where;
    ASSERT_EQ(reused_rng.StateFingerprint(), fresh_rng.StateFingerprint())
        << where;
  }
}

TEST(WalModelTest, FlushPolicyOrdering) {
  WalConfig config;
  WalWorkload workload;
  config.flush_policy = 1;
  const double sync_every = WalModel::Estimate(config, workload).commit_cost_ms;
  config.flush_policy = 2;
  const double per_second = WalModel::Estimate(config, workload).commit_cost_ms;
  config.flush_policy = 0;
  const double none = WalModel::Estimate(config, workload).commit_cost_ms;
  EXPECT_GT(sync_every, per_second);
  EXPECT_GT(per_second, none);
}

TEST(WalModelTest, GroupCommitAmortizesAtHighRate) {
  WalConfig config;
  config.flush_policy = 1;
  config.binlog_sync_every = 0;
  WalWorkload slow;
  slow.commit_rate_tps = 100;
  WalWorkload fast;
  fast.commit_rate_tps = 50000;
  EXPECT_GT(WalModel::Estimate(config, slow).commit_cost_ms,
            WalModel::Estimate(config, fast).commit_cost_ms);
}

TEST(WalModelTest, BinlogSyncEveryNReducesCost) {
  WalConfig config;
  config.flush_policy = 0;
  WalWorkload workload;
  config.binlog_sync_every = 1;
  const double every = WalModel::Estimate(config, workload).commit_cost_ms;
  config.binlog_sync_every = 100;
  const double batched = WalModel::Estimate(config, workload).commit_cost_ms;
  config.binlog_sync_every = 0;
  const double never = WalModel::Estimate(config, workload).commit_cost_ms;
  EXPECT_GT(every, batched);
  EXPECT_GE(batched, never);
}

TEST(WalModelTest, SmallLogBufferCausesWaits) {
  WalConfig config;
  WalWorkload workload;
  workload.commit_rate_tps = 5000;
  workload.redo_kb_per_txn = 16;
  config.log_buffer_mb = 1;
  const double small = WalModel::Estimate(config, workload).log_wait_ms;
  config.log_buffer_mb = 256;
  const double large = WalModel::Estimate(config, workload).log_wait_ms;
  EXPECT_GT(small, 0.0);
  EXPECT_LT(large, small);
}

TEST(WalModelTest, LargerLogFileReducesCheckpointStall) {
  WalConfig config;
  WalWorkload workload;
  workload.commit_rate_tps = 2000;
  config.log_file_mb = 48;
  const WalCost small = WalModel::Estimate(config, workload);
  config.log_file_mb = 4096;
  const WalCost large = WalModel::Estimate(config, workload);
  EXPECT_GT(small.checkpoint_stall_ms, large.checkpoint_stall_ms);
  EXPECT_GT(small.checkpoints_per_sec, large.checkpoints_per_sec);
}

TEST(WalModelTest, HigherIoCapacityAbsorbsCheckpoints) {
  WalConfig config;
  WalWorkload workload;
  workload.commit_rate_tps = 2000;
  config.io_capacity = 200;
  const double slow_io = WalModel::Estimate(config, workload).checkpoint_stall_ms;
  config.io_capacity = 10000;
  const double fast_io = WalModel::Estimate(config, workload).checkpoint_stall_ms;
  EXPECT_GT(slow_io, fast_io);
}

TEST(WalModelTest, DoublewriteAndBufferedIoAmplifyWrites) {
  WalConfig config;
  WalWorkload workload;
  config.doublewrite = true;
  config.flush_method = 0;
  const double both = WalModel::Estimate(config, workload).write_amplification;
  config.doublewrite = false;
  config.flush_method = 2;
  const double neither =
      WalModel::Estimate(config, workload).write_amplification;
  EXPECT_GT(both, neither);
  EXPECT_DOUBLE_EQ(neither, 1.0);
}

}  // namespace
}  // namespace hunter::cdb
