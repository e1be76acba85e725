#include "hunter/hunter.h"

#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "cdb/knob_catalog.h"
#include "controller/controller.h"
#include "cdb/metric_catalog.h"
#include "hunter/model_io.h"
#include "hunter/recommender.h"
#include "workload/workloads.h"

namespace hunter::core {
namespace {

class HunterTest : public ::testing::Test {
 protected:
  HunterTest() : catalog_(cdb::MySqlCatalog()) {}

  std::unique_ptr<controller::Controller> MakeController(int clones) {
    auto instance = std::make_unique<cdb::CdbInstance>(
        &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(),
        42);
    controller::ControllerOptions options;
    options.num_clones = clones;
    options.seed = 42;
    options.concurrent_actors = false;
    return std::make_unique<controller::Controller>(
        std::move(instance), workload::Tpcc(), options);
  }

  HunterOptions FastOptions() {
    HunterOptions options;
    options.ga.target_samples = 30;
    options.ga.population = 10;
    options.optimizer.forest.num_trees = 20;
    options.recommender.warm_start_updates = 20;
    return options;
  }

  cdb::KnobCatalog catalog_;
};

TEST_F(HunterTest, PhaseTransitionAfterGaBudget) {
  auto controller = MakeController(1);
  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 7);
  EXPECT_EQ(tuner.phase(), HunterTuner::Phase::kSampleFactory);
  for (int round = 0; round < 35; ++round) {
    const auto proposals = tuner.Propose(1);
    tuner.Observe(controller->EvaluateBatch(proposals));
  }
  EXPECT_EQ(tuner.phase(), HunterTuner::Phase::kRecommend);
  EXPECT_GE(tuner.shared_pool().size(), 30u);
  ASSERT_NE(tuner.recommender(), nullptr);
  EXPECT_EQ(tuner.recommender()->space().selected_knobs.size(), 20u);
}

TEST_F(HunterTest, FullLoopImprovesOverDefaults) {
  auto controller = MakeController(2);
  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 8);
  tuners::HarnessOptions harness;
  harness.budget_hours = 8.0;
  const tuners::TuningResult result =
      tuners::RunTuning(&tuner, controller.get(), harness);
  const double default_throughput =
      controller->DefaultPerformance().throughput_tps;
  EXPECT_GT(result.best_throughput, 1.2 * default_throughput);
  EXPECT_GT(result.best_sample.fitness, 0.0);
}

TEST_F(HunterTest, SurvivesFaultyCloneFleet) {
  // Full tuning loop on a fleet with transient failures, crashes, a
  // straggler policy, and one permanent clone death: no hangs, the best
  // configuration still clearly beats the defaults, and no infra-failure
  // sentinel leaks into the Shared Pool.
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog_, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(), 42);
  controller::ControllerOptions coptions;
  coptions.num_clones = 4;
  coptions.seed = 42;
  coptions.concurrent_actors = false;
  coptions.faults.seed = 13;
  coptions.faults.transient_deploy_failure_rate = 0.12;
  coptions.faults.crash_rate = 0.04;
  coptions.faults.straggler_rate = 0.05;
  coptions.faults.permanent_deaths = {{2, 3}};
  coptions.straggler_timeout_seconds = 3.0 * controller::Actor::kExecutionSeconds;
  auto controller = std::make_unique<controller::Controller>(
      std::move(instance), workload::Tpcc(), coptions);

  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 8);
  tuners::HarnessOptions harness;
  harness.budget_hours = 8.0;
  const tuners::TuningResult result =
      tuners::RunTuning(&tuner, controller.get(), harness);

  const controller::FaultStats& stats = controller->fault_stats();
  EXPECT_GT(stats.transient_deploy_failures, 0u);
  EXPECT_EQ(stats.permanent_deaths, 1u);
  const double default_throughput =
      controller->DefaultPerformance().throughput_tps;
  EXPECT_GT(result.best_throughput, 1.2 * default_throughput);
  for (const controller::Sample& sample : tuner.shared_pool().Snapshot()) {
    EXPECT_FALSE(sample.evaluation_failed);
  }
}

TEST_F(HunterTest, AblationWithoutGaUsesRandomWarmup) {
  auto controller = MakeController(1);
  HunterOptions options = FastOptions();
  options.use_ga = false;
  options.random_warmup_without_ga = 5;
  HunterTuner tuner(&catalog_, Rules(), options, 9);
  for (int round = 0; round < 8; ++round) {
    const auto proposals = tuner.Propose(1);
    ASSERT_FALSE(proposals.empty());
    tuner.Observe(controller->EvaluateBatch(proposals));
  }
  EXPECT_EQ(tuner.phase(), HunterTuner::Phase::kRecommend);
}

TEST_F(HunterTest, AblationFlagsPropagate) {
  auto controller = MakeController(1);
  HunterOptions options = FastOptions();
  options.optimizer.use_pca = false;
  options.optimizer.use_rf = false;
  options.recommender.use_fes = false;
  HunterTuner tuner(&catalog_, Rules(), options, 10);
  for (int round = 0; round < 35; ++round) {
    tuner.Observe(controller->EvaluateBatch(tuner.Propose(1)));
  }
  ASSERT_NE(tuner.recommender(), nullptr);
  // No PCA: raw 63-metric state. No RF: all 65 knobs tuned.
  EXPECT_EQ(tuner.recommender()->space().state_dim, cdb::kNumMetrics);
  EXPECT_EQ(tuner.recommender()->space().selected_knobs.size(),
            catalog_.size());
}

TEST_F(HunterTest, RulesAreEnforcedInEveryPhase) {
  auto controller = MakeController(1);
  Rules rules;
  rules.FixKnob("innodb_flush_log_at_trx_commit", 1);
  HunterTuner tuner(&catalog_, rules, FastOptions(), 11);
  const size_t flush = static_cast<size_t>(
      catalog_.IndexOf("innodb_flush_log_at_trx_commit"));
  for (int round = 0; round < 40; ++round) {
    const auto proposals = tuner.Propose(1);
    for (const auto& p : proposals) {
      EXPECT_DOUBLE_EQ(catalog_.Denormalize(flush, p[flush]), 1.0)
          << "round " << round;
    }
    tuner.Observe(controller->EvaluateBatch(proposals));
  }
}

TEST_F(HunterTest, ExportBeforeRecommendPhaseIsEmpty) {
  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 12);
  EXPECT_FALSE(tuner.ExportModel().has_value());
}

TEST_F(HunterTest, ModelReuseRoundTrip) {
  auto controller = MakeController(1);
  HunterTuner teacher(&catalog_, Rules(), FastOptions(), 13);
  for (int round = 0; round < 40; ++round) {
    teacher.Observe(controller->EvaluateBatch(teacher.Propose(1)));
  }
  const auto model = teacher.ExportModel();
  ASSERT_TRUE(model.has_value());
  EXPECT_FALSE(model->signature.empty());
  EXPECT_FALSE(model->ddpg_parameters.empty());

  // A fresh HUNTER imports the model and skips straight to recommending.
  HunterTuner student(&catalog_, Rules(), FastOptions(), 14);
  ASSERT_TRUE(student.ImportModel(*model));
  EXPECT_EQ(student.phase(), HunterTuner::Phase::kRecommend);
  auto controller2 = MakeController(1);
  const auto proposals = student.Propose(2);
  ASSERT_EQ(proposals.size(), 2u);
  const auto samples = controller2->EvaluateBatch(proposals);
  EXPECT_FALSE(samples[0].boot_failed);
}

// A model shaped for this catalog and FastOptions' recommender: the raw
// metric vector as state, three knobs, and the parameters of a real network.
HunterModel FittingModel(const cdb::KnobCatalog& catalog,
                         const RecommenderOptions& options) {
  HunterModel model;
  model.space.state_dim = cdb::kNumMetrics;
  model.space.use_pca = false;
  model.space.selected_knobs = {0, 5, 9};
  Rules rules;
  Recommender recommender(&catalog, &rules, model.space, options, 1);
  model.ddpg_parameters = recommender.SaveModel();
  model.base_config.assign(catalog.size(), 0.5);
  model.signature = model.space.Signature();
  return model;
}

TEST_F(HunterTest, ImportModelRefusesHostileStateDimWithoutAllocating) {
  // A saved model without a PCA loads with any decimal state_dim; sizing
  // the recommender's networks from this one would ask for ~10^16 doubles.
  HunterModel hostile;
  hostile.space.state_dim = 100000000000000;
  hostile.space.use_pca = false;
  hostile.space.selected_knobs = {0, 1};
  hostile.ddpg_parameters = {0.5};
  hostile.signature = hostile.space.Signature();
  std::stringstream stream;
  ASSERT_TRUE(SaveModel(hostile, stream));
  HunterModel loaded;
  ASSERT_TRUE(LoadModel(stream, &loaded));

  HunterTuner tuner(&catalog_, Rules(), FastOptions(), 15);
  bool imported = true;
  EXPECT_NO_THROW(imported = tuner.ImportModel(loaded));
  EXPECT_FALSE(imported);
  EXPECT_EQ(tuner.phase(), HunterTuner::Phase::kSampleFactory);
  EXPECT_EQ(tuner.recommender(), nullptr);
}

TEST_F(HunterTest, ImportModelChecksShapesAgainstCatalogAndRecommender) {
  const HunterOptions options = FastOptions();
  const HunterModel fits = FittingModel(catalog_, options.recommender);

  std::vector<HunterModel> misfits(6, fits);
  misfits[0].ddpg_parameters.pop_back();        // one parameter short
  misfits[1].ddpg_parameters.push_back(0.0);    // one parameter over
  misfits[2].space.selected_knobs.back() = catalog_.size();  // no such knob
  misfits[3].space.state_dim = cdb::kNumMetrics + 1;  // not the metric vector
  misfits[4].space.selected_knobs.clear();      // no action
  misfits[5].base_config.pop_back();            // incumbent of wrong length
  for (size_t m = 0; m < misfits.size(); ++m) {
    HunterTuner tuner(&catalog_, Rules(), options, 16);
    EXPECT_FALSE(tuner.ImportModel(misfits[m])) << "misfit " << m;
    EXPECT_EQ(tuner.recommender(), nullptr) << "misfit " << m;
  }

  HunterTuner tuner(&catalog_, Rules(), options, 16);
  ASSERT_TRUE(tuner.ImportModel(fits));
  EXPECT_EQ(tuner.phase(), HunterTuner::Phase::kRecommend);
  EXPECT_EQ(tuner.recommender()->SaveModel(), fits.ddpg_parameters);
}

TEST_F(HunterTest, ModelRegistryMatchesBySignature) {
  ModelRegistry registry;
  HunterModel model;
  model.space.state_dim = 13;
  model.space.selected_knobs = {1, 2, 3};
  model.signature = model.space.Signature();
  registry.Store(model);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.Match(model.signature).has_value());
  EXPECT_FALSE(registry.Match("v7:9,").has_value());
}

TEST(RecommenderTest, FesProbabilitySatisfiesPaperEquations) {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  Rules rules;
  OptimizedSpace space;
  space.state_dim = 5;
  space.use_pca = false;
  space.selected_knobs = {0, 1, 2};
  RecommenderOptions options;
  Recommender recommender(&catalog, &rules, space, options, 1);
  // Eq. boundary condition: P(A_c)|_{t=0} = 0.3.
  EXPECT_NEAR(recommender.ProbabilityCurrent(0), 0.3, 1e-12);
  // Eq. 7: strictly increasing (until the cap).
  double previous = 0.0;
  for (size_t t = 0; t < 400; t += 20) {
    const double p = recommender.ProbabilityCurrent(t);
    EXPECT_GE(p, previous);
    previous = p;
  }
  // Eq. 6: approaches its limit for large t.
  EXPECT_NEAR(recommender.ProbabilityCurrent(100000),
              options.fes_p_current_cap, 1e-9);
}

TEST(RecommenderTest, WarmStartSeedsReplayAndTracksBest) {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  Rules rules;
  OptimizedSpace space;
  space.state_dim = 4;
  space.use_pca = false;  // state_dim mismatch handled by encode? use raw
  space.selected_knobs = {0, 1};
  RecommenderOptions options;
  options.warm_start_updates = 5;
  Recommender recommender(&catalog, &rules, space, options, 2);

  std::vector<controller::Sample> pool(3);
  for (size_t i = 0; i < 3; ++i) {
    pool[i].knobs.assign(catalog.size(), 0.5);
    pool[i].knobs[0] = 0.1 * static_cast<double>(i + 1);
    pool[i].metrics.assign(4, static_cast<double>(i));
    pool[i].fitness = static_cast<double>(i) * 0.1;
  }
  recommender.WarmStart(pool, pool[2].knobs);
  EXPECT_DOUBLE_EQ(recommender.best_fitness(), 0.2);
  EXPECT_EQ(recommender.best_full_config(), pool[2].knobs);
}

}  // namespace
}  // namespace hunter::core
