#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "cdb/cdb_instance.h"
#include "cdb/fitness.h"
#include "cdb/instance_type.h"
#include "cdb/knob_catalog.h"
#include "workload/workloads.h"

namespace hunter::cdb {
namespace {

TEST(FitnessTest, ZeroAtDefaults) {
  PerformanceSummary defaults{1000.0, 50.0};
  EXPECT_DOUBLE_EQ(Fitness(0.5, defaults, defaults), 0.0);
}

TEST(FitnessTest, Equation1KnownValue) {
  PerformanceSummary defaults{1000.0, 50.0};
  PerformanceSummary current{1500.0, 40.0};  // +50% T, -20% L
  EXPECT_NEAR(Fitness(0.5, current, defaults), 0.5 * 0.5 + 0.5 * 0.2, 1e-12);
}

TEST(FitnessTest, AlphaShiftsAttention) {
  PerformanceSummary defaults{1000.0, 50.0};
  PerformanceSummary fast_but_slow_latency{1500.0, 60.0};
  const double throughput_lover = Fitness(1.0, fast_but_slow_latency, defaults);
  const double latency_lover = Fitness(0.0, fast_but_slow_latency, defaults);
  EXPECT_NEAR(throughput_lover, 0.5, 1e-12);
  EXPECT_NEAR(latency_lover, -0.2, 1e-12);
}

TEST(FitnessTest, BootFailureClamped) {
  PerformanceSummary defaults{1000.0, 50.0};
  PerformanceSummary failed{-1000.0,
                            std::numeric_limits<double>::infinity()};
  EXPECT_DOUBLE_EQ(Fitness(0.5, failed, defaults), kBootFailureFitness);
}

TEST(FitnessTest, TerriblePerformanceClampedToFailureFloor) {
  PerformanceSummary defaults{1000.0, 50.0};
  PerformanceSummary awful{1.0, 1e9};
  EXPECT_DOUBLE_EQ(Fitness(0.5, awful, defaults), kBootFailureFitness);
}

TEST(InstanceTypeTest, Table7HasEightTypes) {
  const auto types = Table7InstanceTypes();
  ASSERT_EQ(types.size(), 8u);
  EXPECT_EQ(types[0].name, "A");
  EXPECT_EQ(types[0].cpu_cores, 1);
  EXPECT_DOUBLE_EQ(types[0].ram_gb, 2.0);
  EXPECT_EQ(types[7].name, "H");
  EXPECT_EQ(types[7].cpu_cores, 16);
  EXPECT_DOUBLE_EQ(types[7].ram_gb, 64.0);
}

TEST(InstanceTypeTest, LookupByNameAndFallback) {
  EXPECT_EQ(InstanceTypeByName("C").cpu_cores, 4);
  EXPECT_DOUBLE_EQ(InstanceTypeByName("C").ram_gb, 12.0);
  EXPECT_EQ(InstanceTypeByName("nope").name, "F");
}

TEST(InstanceTypeTest, EvaluationInstancesMatchPaperSetup) {
  EXPECT_EQ(MySqlEvaluationInstance().cpu_cores, 8);
  EXPECT_DOUBLE_EQ(MySqlEvaluationInstance().ram_gb, 32.0);
  EXPECT_EQ(PostgresEvaluationInstance().cpu_cores, 8);
  EXPECT_DOUBLE_EQ(PostgresEvaluationInstance().ram_gb, 16.0);
  EXPECT_EQ(ProductionEvaluationInstance().cpu_cores, 4);
  EXPECT_DOUBLE_EQ(ProductionEvaluationInstance().ram_gb, 16.0);
}

class CdbInstanceTest : public ::testing::Test {
 protected:
  CdbInstanceTest()
      : catalog_(MySqlCatalog()),
        instance_(&catalog_, MySqlEvaluationInstance(), MySqlEngineTuning(),
                  42) {}
  KnobCatalog catalog_;
  CdbInstance instance_;
};

TEST_F(CdbInstanceTest, DynamicKnobChangeAvoidsRestart) {
  Configuration config = catalog_.DefaultConfiguration();
  const int io_cap = catalog_.IndexOf("innodb_io_capacity");  // dynamic
  config[static_cast<size_t>(io_cap)] = 2000;
  const DeployOutcome outcome = instance_.DeployConfiguration(config);
  EXPECT_TRUE(outcome.booted);
  EXPECT_FALSE(outcome.restarted);
  EXPECT_DOUBLE_EQ(outcome.deploy_seconds,
                   CdbInstance::kDynamicDeploySeconds);
}

TEST_F(CdbInstanceTest, StaticKnobChangeRequiresRestart) {
  Configuration config = catalog_.DefaultConfiguration();
  const int log_size = catalog_.IndexOf("innodb_log_file_size");  // static
  config[static_cast<size_t>(log_size)] = 2048;
  const DeployOutcome outcome = instance_.DeployConfiguration(config);
  EXPECT_TRUE(outcome.booted);
  EXPECT_TRUE(outcome.restarted);
  EXPECT_EQ(instance_.restarts(), 1u);
  EXPECT_DOUBLE_EQ(outcome.deploy_seconds,
                   CdbInstance::kRestartDeploySeconds +
                       CdbInstance::kWarmupSeconds);
}

TEST_F(CdbInstanceTest, FailedBootKeepsPreviousConfiguration) {
  const Configuration before = instance_.active_configuration();
  Configuration bad = before;
  bad[static_cast<size_t>(catalog_.IndexOf("innodb_buffer_pool_size"))] =
      49152;
  const DeployOutcome outcome = instance_.DeployConfiguration(bad);
  EXPECT_FALSE(outcome.booted);
  EXPECT_EQ(instance_.active_configuration(), before);
}

TEST_F(CdbInstanceTest, StressTestWarmsInstance) {
  EXPECT_FALSE(instance_.warm());
  instance_.StressTest(workload::Tpcc());
  EXPECT_TRUE(instance_.warm());
}

TEST_F(CdbInstanceTest, CloneStartsColdWithSameConfig) {
  Configuration config = catalog_.DefaultConfiguration();
  config[static_cast<size_t>(catalog_.IndexOf("innodb_io_capacity"))] = 5000;
  instance_.DeployConfiguration(config);
  instance_.StressTest(workload::Tpcc());
  auto clone = instance_.Clone();
  EXPECT_EQ(clone->active_configuration(), instance_.active_configuration());
  EXPECT_FALSE(clone->warm());
  // Clone runs independently.
  const PerfResult result = clone->StressTest(workload::Tpcc());
  EXPECT_GT(result.throughput_tps, 0.0);
}

TEST_F(CdbInstanceTest, PointInTimeRecoveryResetsWarmState) {
  instance_.StressTest(workload::Tpcc());
  ASSERT_TRUE(instance_.warm());
  instance_.PointInTimeRecover();
  EXPECT_FALSE(instance_.warm());
}

TEST_F(CdbInstanceTest, RestoredStateReplaysStressTestBitForBit) {
  // A straggler retry rolls its clone back to the captured pre-run state;
  // the replay must return exactly what the cancelled run returned. Start
  // from a warm instance with an advanced RNG so the snapshot is not the
  // constructor's state.
  Configuration config = catalog_.DefaultConfiguration();
  config[static_cast<size_t>(catalog_.IndexOf("innodb_io_capacity"))] = 5000;
  ASSERT_TRUE(instance_.DeployConfiguration(config).booted);
  instance_.StressTest(workload::Tpcc());

  const CdbInstance::StateSnapshot snapshot = instance_.CaptureState();
  const PerfResult first = instance_.StressTest(workload::Tpcc());
  instance_.RestoreState(snapshot);
  const PerfResult replay = instance_.StressTest(workload::Tpcc());

  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(replay.boot_failed, first.boot_failed);
  EXPECT_EQ(bits(replay.throughput_tps), bits(first.throughput_tps));
  EXPECT_EQ(bits(replay.latency_p95_ms), bits(first.latency_p95_ms));
  EXPECT_EQ(bits(replay.latency_p99_ms), bits(first.latency_p99_ms));
  ASSERT_EQ(replay.metrics.size(), first.metrics.size());
  ASSERT_FALSE(first.metrics.empty());
  for (size_t i = 0; i < first.metrics.size(); ++i) {
    EXPECT_EQ(bits(replay.metrics[i]), bits(first.metrics[i])) << "metric " << i;
  }
  for (size_t i = 0; i < first.latents.size(); ++i) {
    EXPECT_EQ(bits(replay.latents[i]), bits(first.latents[i])) << "latent " << i;
  }
  // Without the restore the next run draws fresh randomness.
  const PerfResult next = instance_.StressTest(workload::Tpcc());
  EXPECT_NE(bits(next.throughput_tps), bits(first.throughput_tps));
}

TEST_F(CdbInstanceTest, ResizeChangesInstanceTypeAndRestarts) {
  const uint64_t restarts = instance_.restarts();
  instance_.ResizeInstance(InstanceTypeByName("H"));
  EXPECT_EQ(instance_.instance_type().name, "H");
  EXPECT_EQ(instance_.restarts(), restarts + 1);
}

}  // namespace
}  // namespace hunter::cdb
