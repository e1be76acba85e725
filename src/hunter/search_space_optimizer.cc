#include "hunter/search_space_optimizer.h"

#include <algorithm>
#include <numeric>

namespace hunter::core {

std::vector<double> OptimizedSpace::EncodeState(
    const std::vector<double>& metrics) const {
  if (use_pca) return pca.Transform(metrics, state_dim);
  return metrics;
}

std::string OptimizedSpace::Signature() const {
  std::vector<size_t> sorted = selected_knobs;
  std::sort(sorted.begin(), sorted.end());
  // Built with += rather than operator+ chains: GCC 12's -Wrestrict issues
  // a false-positive overlap warning when the temporaries of a + chain are
  // inlined (PR105329), and the CI build promotes warnings to errors.
  std::string signature = "v";
  signature += std::to_string(state_dim);
  signature += ':';
  for (size_t knob : sorted) {
    signature += std::to_string(knob);
    signature += ',';
  }
  return signature;
}

OptimizedSpace SearchSpaceOptimizer::Optimize(
    const std::vector<controller::Sample>& pool,
    const cdb::KnobCatalog& catalog, const Rules& rules,
    const OptimizerOptions& options, common::Rng* rng,
    common::ThreadPool* executor) {
  OptimizedSpace space;
  const std::vector<size_t> tunable = rules.TunableKnobs(catalog);

  // ---- Metrics compression (PCA).
  std::vector<std::vector<double>> metric_rows;
  for (const controller::Sample& sample : pool) {
    if (!sample.boot_failed) metric_rows.push_back(sample.metrics);
  }
  if (options.use_pca && metric_rows.size() >= 8) {
    space.pca.Fit(linalg::Matrix(metric_rows), /*standardize=*/true);
    space.state_dim =
        space.pca.ComponentsForVariance(options.variance_threshold);
    space.use_pca = true;
  } else {
    space.state_dim = metric_rows.empty() ? 0 : metric_rows[0].size();
    space.use_pca = false;
  }

  // ---- Knob sifting (Random Forest importance).
  if (options.use_rf && pool.size() >= 16 && !tunable.empty()) {
    linalg::Matrix x(pool.size(), tunable.size());
    std::vector<double> y(pool.size());
    for (size_t r = 0; r < pool.size(); ++r) {
      for (size_t c = 0; c < tunable.size(); ++c) {
        x.At(r, c) = pool[r].knobs[tunable[c]];
      }
      y[r] = pool[r].fitness;
    }
    ml::RandomForest forest;
    forest.Fit(x, y, options.forest, rng, executor);
    const std::vector<size_t> ranking = forest.RankFeatures();
    const size_t keep = std::min(options.top_knobs, tunable.size());
    space.selected_knobs.reserve(keep);
    for (size_t i = 0; i < keep; ++i) {
      space.selected_knobs.push_back(tunable[ranking[i]]);
    }
    space.knob_importance.assign(catalog.size(), 0.0);
    const std::vector<double>& importance = forest.feature_importance();
    for (size_t c = 0; c < tunable.size(); ++c) {
      space.knob_importance[tunable[c]] = importance[c];
    }
  } else {
    space.selected_knobs = tunable;
    space.knob_importance.assign(catalog.size(), 0.0);
    for (size_t knob : tunable) {
      space.knob_importance[knob] = 1.0 / static_cast<double>(tunable.size());
    }
  }
  return space;
}

}  // namespace hunter::core
