#include "hunter/hunter.h"

#include <string>

#include "cdb/metric_catalog.h"
#include "linalg/simd/simd.h"

namespace hunter::core {

HunterTuner::HunterTuner(const cdb::KnobCatalog* catalog, Rules rules,
                         const HunterOptions& options, uint64_t seed)
    : catalog_(catalog),
      rules_(std::move(rules)),
      options_(options),
      rng_(seed) {
  if (options_.use_ga) {
    factory_ = std::make_unique<GeneticSampleFactory>(
        catalog_, &rules_, options_.ga, rng_.NextU64());
  }
}

void HunterTuner::BindObservability(obs::Journal* journal) {
  journal_ = journal;
  executor_ = journal != nullptr ? journal->executor() : nullptr;
  obs::MetricsRegistry* registry =
      journal != nullptr ? journal->registry() : nullptr;
  if (registry == nullptr) return;
  ga_generations_counter_ =
      registry->RegisterCounter("hunter.ga_generations");
  sso_refreshes_counter_ = registry->RegisterCounter("hunter.sso_refreshes");
  ddpg_train_steps_counter_ =
      registry->RegisterCounter("hunter.ddpg_train_steps");
  pool_size_gauge_ = registry->RegisterGauge("hunter.pool_size");
  // Which vector-kernel tier this process dispatches at (0 = scalar,
  // 1 = avx2+fma; see linalg/simd/simd.h). Recorded once per bind so a run
  // journal pins down the ISA its numbers were produced on — the kernels
  // are bit-exact across tiers, so this explains timing, never results.
  obs::Gauge* simd_tier_gauge = registry->RegisterGauge("linalg.simd_tier");
  simd_tier_gauge->Set(static_cast<double>(linalg::simd::ActiveTierIndex()));
}

std::vector<std::vector<double>> HunterTuner::Propose(size_t count) {
  if (phase_ == Phase::kSampleFactory) {
    if (options_.use_ga) {
      std::vector<std::vector<double>> proposals = factory_->Propose(count);
      if (!proposals.empty()) return proposals;
      // Factory exhausted its budget but the transition happens on Observe;
      // fall through to the recommender after transitioning now.
      MaybeTransitionToRecommend();
    } else {
      // Cold start without GA: a short random warm-up (CDBTune-style).
      if (warmup_proposed_ < options_.random_warmup_without_ga) {
        std::vector<std::vector<double>> proposals;
        for (size_t i = 0;
             i < count && warmup_proposed_ < options_.random_warmup_without_ga;
             ++i, ++warmup_proposed_) {
          std::vector<double> random(catalog_->size());
          for (double& v : random) v = rng_.Uniform();
          proposals.push_back(rules_.Apply(*catalog_, std::move(random)));
        }
        return proposals;
      }
      MaybeTransitionToRecommend();
    }
  }
  return recommender_->Propose(count);
}

void HunterTuner::Observe(const std::vector<controller::Sample>& samples) {
  // Samples the clone fleet gave up on (infrastructure faults, not boot
  // failures) carry no information about their configuration: keep them out
  // of the Shared Pool and away from the GA/DDPG learners entirely.
  std::vector<controller::Sample> usable;
  usable.reserve(samples.size());
  for (const controller::Sample& sample : samples) {
    if (!sample.evaluation_failed) usable.push_back(sample);
  }
  pool_.AddBatch(usable);
  if (pool_size_gauge_ != nullptr) {
    pool_size_gauge_->Set(static_cast<double>(pool_.size()));
  }
  if (phase_ == Phase::kSampleFactory) {
    if (options_.use_ga) {
      factory_->Observe(usable);
      if (ga_generations_counter_ != nullptr &&
          factory_->generations() > reported_ga_generations_) {
        const size_t generations = factory_->generations();
        ga_generations_counter_->Increment(
            static_cast<double>(generations - reported_ga_generations_));
        reported_ga_generations_ = generations;
        journal_->tracer().Event(
            "ga_generation", {{"generation", std::to_string(generations)}});
      }
      if (factory_->Done()) MaybeTransitionToRecommend();
    } else if (warmup_proposed_ >= options_.random_warmup_without_ga) {
      MaybeTransitionToRecommend();
    }
    return;
  }
  recommender_->Observe(usable);
  if (ddpg_train_steps_counter_ != nullptr) {
    ddpg_train_steps_counter_->Increment(static_cast<double>(
        usable.size() *
        static_cast<size_t>(options_.recommender.train_steps_per_sample)));
  }
  recommend_samples_ += usable.size();
  if (options_.reoptimize_every > 0 &&
      recommend_samples_ >= options_.reoptimize_every) {
    recommend_samples_ = 0;
    phase_ = Phase::kSampleFactory;  // force a rebuild
    MaybeTransitionToRecommend();
  }
}

void HunterTuner::MaybeTransitionToRecommend() {
  if (phase_ == Phase::kRecommend) return;
  // Phase 2: optimize the search space over the whole Shared Pool.
  const std::vector<controller::Sample> snapshot = pool_.Snapshot();
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      snapshot, *catalog_, rules_, options_.optimizer, &rng_, executor_);
  if (sso_refreshes_counter_ != nullptr) {
    sso_refreshes_counter_->Increment();
    journal_->tracer().Event(
        "search_space_optimized",
        {{"state_dim", std::to_string(space.state_dim)},
         {"selected_knobs", std::to_string(space.selected_knobs.size())},
         {"pool_samples", std::to_string(snapshot.size())}});
  }
  // Phase 3: build the Recommender and warm-start it from the pool.
  recommender_ = std::make_unique<Recommender>(
      catalog_, &rules_, space, options_.recommender, rng_.NextU64());
  controller::Sample best;
  std::vector<double> base;
  if (pool_.Best(&best)) base = best.knobs;
  recommender_->WarmStart(snapshot, base);
  phase_ = Phase::kRecommend;
}

std::optional<HunterModel> HunterTuner::ExportModel() const {
  if (recommender_ == nullptr) return std::nullopt;
  HunterModel model;
  model.space = recommender_->space();
  model.ddpg_parameters = recommender_->SaveModel();
  model.base_config = recommender_->best_full_config();
  model.signature = model.space.Signature();
  return model;
}

bool HunterTuner::ImportModel(const HunterModel& model) {
  // Bound both dimensions before any arithmetic on them: the state is the
  // raw metric vector or its projection onto some of the PCA's components,
  // and the action is a set of catalog knobs.
  const OptimizedSpace& space = model.space;
  const size_t state_dim = space.state_dim;
  const bool state_fits =
      space.use_pca ? space.pca.input_dim() == cdb::kNumMetrics &&
                          state_dim >= 1 && state_dim <= cdb::kNumMetrics
                    : state_dim == cdb::kNumMetrics;
  const size_t action_dim = space.selected_knobs.size();
  if (!state_fits || action_dim == 0 || action_dim > catalog_->size()) {
    return false;
  }
  for (size_t knob : space.selected_knobs) {
    if (knob >= catalog_->size()) return false;
  }
  if (!model.base_config.empty() &&
      model.base_config.size() != catalog_->size()) {
    return false;
  }
  ml::DdpgOptions ddpg = options_.recommender.ddpg;
  ddpg.state_dim = state_dim;
  ddpg.action_dim = action_dim;
  if (model.ddpg_parameters.size() != ml::Ddpg::ParameterCount(ddpg)) {
    return false;
  }
  recommender_ = std::make_unique<Recommender>(
      catalog_, &rules_, model.space, options_.recommender, rng_.NextU64());
  recommender_->LoadModel(model.ddpg_parameters);
  // Fine-tuning starts from the imported incumbent; no Sample Factory run.
  recommender_->WarmStart({}, model.base_config);
  phase_ = Phase::kRecommend;
  return true;
}

void ModelRegistry::Store(const HunterModel& model) {
  models_[model.signature] = model;
}

std::optional<HunterModel> ModelRegistry::Match(
    const std::string& signature) const {
  const auto it = models_.find(signature);
  if (it == models_.end()) return std::nullopt;
  return it->second;
}

}  // namespace hunter::core
