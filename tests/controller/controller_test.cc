#include "controller/controller.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cdb/knob_catalog.h"
#include "controller/shared_pool.h"
#include "obs/journal.h"
#include "workload/workloads.h"

namespace hunter::controller {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : catalog_(cdb::MySqlCatalog()) {}

  std::unique_ptr<Controller> Make(int clones) {
    auto instance = std::make_unique<cdb::CdbInstance>(
        &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(),
        42);
    ControllerOptions options;
    options.num_clones = clones;
    options.seed = 42;
    options.concurrent_actors = false;
    return std::make_unique<Controller>(std::move(instance),
                                        workload::Tpcc(), options);
  }

  std::vector<double> DefaultNormalized() {
    return catalog_.NormalizeConfiguration(catalog_.DefaultConfiguration());
  }

  cdb::KnobCatalog catalog_;
};

TEST_F(ControllerTest, DefaultPerformanceIsPositiveAndCached) {
  auto controller = Make(1);
  const auto& first = controller->DefaultPerformance();
  EXPECT_GT(first.throughput_tps, 0.0);
  const double clock_after_first = controller->clock().seconds();
  controller->DefaultPerformance();  // cached, no extra time
  EXPECT_DOUBLE_EQ(controller->clock().seconds(), clock_after_first);
}

TEST_F(ControllerTest, DefaultPerformanceChargesDeployCost) {
  // Regression: resetting the clone to the default configuration is a real
  // deploy and must be charged, not just the measurement runs.
  auto controller = Make(1);
  controller->DefaultPerformance();
  // The clone already runs the default config, so the reset takes the
  // dynamic-deploy path; two measurement runs follow, each paying execution
  // plus metric collection (the collection term used to be dropped).
  EXPECT_DOUBLE_EQ(controller->clock().seconds(),
                   cdb::CdbInstance::kDynamicDeploySeconds +
                       2.0 * Actor::kExecutionSeconds +
                       2.0 * Actor::kCollectionSeconds);
}

TEST_F(ControllerTest, PoolSizedToClonesBoundedByHardware) {
  // Regression: the pool was silently capped at 8 threads, serializing the
  // paper's 20-clone Fig. 12 configuration.
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  ControllerOptions options;
  options.num_clones = 20;
  options.concurrent_actors = true;
  Controller controller(std::move(instance), workload::Tpcc(), options);
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t expected =
      hw == 0 ? 20u : std::min<size_t>(20u, static_cast<size_t>(hw));
  EXPECT_EQ(controller.pool_threads(), expected);
}

TEST_F(ControllerTest, MaxPoolThreadsOptionOverridesSizing) {
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  ControllerOptions options;
  options.num_clones = 6;
  options.concurrent_actors = true;
  options.max_pool_threads = 3;
  Controller controller(std::move(instance), workload::Tpcc(), options);
  EXPECT_EQ(controller.pool_threads(), 3u);
}

TEST_F(ControllerTest, EvaluateBatchReturnsOneSamplePerConfig) {
  auto controller = Make(2);
  const auto samples = controller->EvaluateBatch(
      {DefaultNormalized(), DefaultNormalized(), DefaultNormalized()});
  ASSERT_EQ(samples.size(), 3u);
  for (const auto& sample : samples) {
    EXPECT_FALSE(sample.boot_failed);
    EXPECT_EQ(sample.metrics.size(), cdb::kNumMetrics);
    EXPECT_EQ(sample.knobs.size(), catalog_.size());
  }
}

TEST_F(ControllerTest, DefaultConfigHasNearZeroFitness) {
  auto controller = Make(1);
  const auto samples = controller->EvaluateBatch({DefaultNormalized()});
  EXPECT_NEAR(samples[0].fitness, 0.0, 0.25);
}

TEST_F(ControllerTest, ParallelCloneChargesOneRoundOfTime) {
  auto c1 = Make(1);
  auto c4 = Make(4);
  c1->DefaultPerformance();
  c4->DefaultPerformance();
  const double t1_start = c1->clock().seconds();
  const double t4_start = c4->clock().seconds();
  std::vector<std::vector<double>> batch(4, DefaultNormalized());
  c1->EvaluateBatch(batch);
  c4->EvaluateBatch(batch);
  const double t1 = c1->clock().seconds() - t1_start;
  const double t4 = c4->clock().seconds() - t4_start;
  // 4 configs on 1 clone = 4 rounds; on 4 clones = 1 round.
  EXPECT_NEAR(t1 / t4, 4.0, 0.5);
}

TEST_F(ControllerTest, BootFailureChargesDeployOnly) {
  auto controller = Make(1);
  controller->DefaultPerformance();
  std::vector<double> bad = DefaultNormalized();
  bad[static_cast<size_t>(catalog_.IndexOf("innodb_buffer_pool_size"))] = 1.0;
  bad[static_cast<size_t>(catalog_.IndexOf("max_connections"))] = 1.0;
  const double before = controller->clock().seconds();
  const auto samples = controller->EvaluateBatch({bad});
  EXPECT_TRUE(samples[0].boot_failed);
  EXPECT_DOUBLE_EQ(samples[0].throughput_tps, -1000.0);
  // No workload execution happened: just the failed deployment attempt.
  EXPECT_LT(controller->clock().seconds() - before, 30.0);
}

TEST_F(ControllerTest, ChargeModelTimeAdvancesClock) {
  auto controller = Make(1);
  const double before = controller->clock().seconds();
  controller->ChargeModelTime(0.071);
  EXPECT_DOUBLE_EQ(controller->clock().seconds(), before + 0.071);
}

TEST_F(ControllerTest, DeployToUserUpdatesUserInstance) {
  auto controller = Make(1);
  std::vector<double> tuned = DefaultNormalized();
  tuned[static_cast<size_t>(catalog_.IndexOf("innodb_io_capacity"))] = 0.8;
  controller->DeployToUser(tuned);
  const auto& config = controller->user_instance().active_configuration();
  const size_t io_cap =
      static_cast<size_t>(catalog_.IndexOf("innodb_io_capacity"));
  EXPECT_GT(config[io_cap], 200.0);  // moved off the default
}

TEST_F(ControllerTest, WorkloadDriftRemeasuresBaseline) {
  auto controller = Make(1);
  const double t_before = controller->DefaultPerformance().throughput_tps;
  controller->SetWorkload(workload::SysbenchWriteOnly());
  const double t_after = controller->DefaultPerformance().throughput_tps;
  EXPECT_EQ(controller->workload().name, "sysbench_wo");
  // Baselines differ across workloads (almost surely).
  EXPECT_NE(t_before, t_after);
}

TEST_F(ControllerTest, TracksStressTestCount) {
  auto controller = Make(2);
  controller->EvaluateBatch({DefaultNormalized(), DefaultNormalized()});
  EXPECT_EQ(controller->total_stress_tests(), 2u);
}

TEST_F(ControllerTest, ConcurrentActorsMatchSerialSemantics) {
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  ControllerOptions options;
  options.num_clones = 4;
  options.seed = 42;
  options.concurrent_actors = true;
  Controller controller(std::move(instance), workload::Tpcc(), options);
  const auto samples = controller.EvaluateBatch(
      std::vector<std::vector<double>>(8, DefaultNormalized()));
  ASSERT_EQ(samples.size(), 8u);
  for (const auto& sample : samples) EXPECT_GT(sample.throughput_tps, 0.0);
}

TEST_F(ControllerTest, RolledBackAttemptReplaysIdenticalSample) {
  // The Controller cancels a straggler by rolling its clone back; the retry
  // on the same clone must produce the sample the cancelled run produced.
  const cdb::PerformanceSummary defaults{1000.0, 50.0};
  std::vector<double> config = DefaultNormalized();
  config[static_cast<size_t>(catalog_.IndexOf("innodb_io_capacity"))] = 0.7;
  Actor actor(std::make_unique<cdb::CdbInstance>(
                  &catalog_, cdb::MySqlEvaluationInstance(),
                  cdb::MySqlEngineTuning(), 42),
              /*alpha=*/0.5);
  actor.Attempt(config, workload::Tpcc(), defaults);  // warm, advance RNG

  const Actor::AttemptOutcome first =
      actor.Attempt(config, workload::Tpcc(), defaults);
  actor.RollbackLastRun();
  const Actor::AttemptOutcome replay =
      actor.Attempt(config, workload::Tpcc(), defaults);

  ASSERT_EQ(first.status, Actor::AttemptStatus::kOk);
  ASSERT_EQ(replay.status, Actor::AttemptStatus::kOk);
  const Sample& a = first.sample;
  const Sample& b = replay.sample;
  EXPECT_EQ(b.metrics, a.metrics);
  EXPECT_EQ(b.knobs, a.knobs);
  EXPECT_EQ(b.throughput_tps, a.throughput_tps);
  EXPECT_EQ(b.latency_p95_ms, a.latency_p95_ms);
  EXPECT_EQ(b.fitness, a.fitness);
  EXPECT_EQ(b.boot_failed, a.boot_failed);
  EXPECT_EQ(b.evaluation_failed, a.evaluation_failed);
  EXPECT_EQ(b.attempts, a.attempts);
}

TEST_F(ControllerTest, StragglerRetriesStayOnTheirClone) {
  // Every run straggles, so every configuration is cancelled max_retries
  // times before its last attempt is accepted. Each retry must run on the
  // clone that was rolled back for it (lane affinity), which the span names
  // record: clone<id>_stress_cancelled ... clone<id>_stress. Clone 2 dies
  // on its first run, which staggers the retry counts: rounds then hold
  // several retries at once, and config 3's last retry prefers lane 2 in a
  // round only two items wide.
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  ControllerOptions options;
  options.num_clones = 3;
  options.seed = 42;
  options.concurrent_actors = false;
  options.faults.seed = 5;
  options.faults.straggler_rate = 1.0;
  options.faults.straggler_slowdown = 10.0;
  options.faults.permanent_deaths = {{2, 0}};
  options.straggler_timeout_seconds = 300.0;  // < 10 * 142.7
  options.max_retries = 2;
  Controller controller(std::move(instance), workload::Tpcc(), options);
  const size_t configs = 4;
  controller.EvaluateBatch(
      std::vector<std::vector<double>>(configs, DefaultNormalized()));

  std::map<std::string, std::vector<std::string>> cancelled;  // by config
  std::map<std::string, std::string> accepted;
  const std::string kCancelled = "_stress_cancelled";
  const std::string kAccepted = "_stress";
  for (const obs::Record& r : controller.journal().records()) {
    if (r.type != obs::Record::Type::kSpan) continue;
    std::string config;
    for (const obs::Attr& attr : r.span.attrs) {
      if (attr.key == "config") config = attr.value;
    }
    const std::string& name = r.span.name;
    if (name.ends_with(kCancelled)) {
      cancelled[config].push_back(
          name.substr(0, name.size() - kCancelled.size()));
    } else if (name.ends_with(kAccepted)) {
      accepted[config] = name.substr(0, name.size() - kAccepted.size());
    }
  }
  ASSERT_EQ(accepted.size(), configs);
  ASSERT_EQ(controller.fault_stats().permanent_deaths, 1u);
  for (const auto& [config, clone] : accepted) {
    ASSERT_EQ(cancelled[config].size(), 2u) << "config " << config;
    for (const std::string& c : cancelled[config]) {
      EXPECT_EQ(c, clone) << "config " << config;
    }
  }
}

TEST(SharedPoolTest, AddAndSnapshot) {
  SharedPool pool;
  Sample sample;
  sample.fitness = 0.5;
  pool.Add(sample);
  pool.AddBatch({sample, sample});
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.Snapshot().size(), 3u);
}

TEST(SharedPoolTest, BestSkipsBootFailures) {
  SharedPool pool;
  Sample failed;
  failed.fitness = 10.0;  // better fitness but failed
  failed.boot_failed = true;
  Sample ok;
  ok.fitness = 0.3;
  pool.Add(failed);
  pool.Add(ok);
  Sample best;
  ASSERT_TRUE(pool.Best(&best));
  EXPECT_DOUBLE_EQ(best.fitness, 0.3);
}

TEST(SharedPoolTest, BestOfEmptyPoolIsFalse) {
  SharedPool pool;
  Sample best;
  EXPECT_FALSE(pool.Best(&best));
  Sample failed;
  failed.boot_failed = true;
  pool.Add(failed);
  EXPECT_FALSE(pool.Best(&best));
}

TEST(SharedPoolTest, ClearEmptiesPool) {
  SharedPool pool;
  pool.Add(Sample{});
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
}

TEST(SharedPoolTest, ConcurrentAddBatchBestSnapshotStress) {
  // Hammer the pool from parallel writers and readers; run under
  // HUNTER_SANITIZE=thread via `ctest -L concurrency` to catch races.
  SharedPool pool;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> best_calls{0};
  // Raw threads are the point here: the test hammers SharedPool from
  // outside common::ThreadPool to expose races under TSan.
  // hunterlint: allow(no-naked-thread) stress test needs raw threads
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &best_calls, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Sample sample;
        sample.fitness = 0.001 * (t * kOpsPerThread + i);
        if (i % 3 == 0) {
          pool.AddBatch({sample, sample});
        } else {
          pool.Add(sample);
        }
        if (i % 7 == 0) {
          Sample best;
          if (pool.Best(&best)) ++best_calls;
        }
        if (i % 31 == 0) (void)pool.Snapshot().size();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Each thread adds 2 samples on i%3==0 (67 of 200) and 1 otherwise.
  constexpr int kPerThread = 67 * 2 + 133;
  EXPECT_EQ(pool.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_GT(best_calls.load(), 0);
  Sample best;
  ASSERT_TRUE(pool.Best(&best));
  EXPECT_DOUBLE_EQ(best.fitness, 0.001 * (kThreads * kOpsPerThread - 1));
}

}  // namespace
}  // namespace hunter::controller
