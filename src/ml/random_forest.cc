#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hunter::ml {

void RandomForest::Fit(const linalg::Matrix& x, const std::vector<double>& y,
                       const RandomForestOptions& options, common::Rng* rng,
                       common::ThreadPool* pool) {
  trees_.assign(options.num_trees, CartTree());
  importance_.assign(x.cols(), 0.0);

  CartOptions tree_options = options.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<size_t>(
        std::ceil(options.feature_fraction * static_cast<double>(x.cols())));
    tree_options.max_features = std::max<size_t>(1, tree_options.max_features);
  }

  // Fork one RNG per tree up front, in tree order. Each tree's fit then
  // depends only on its own RNG and the shared (read-only) data, so the
  // forest is bit-identical whether the trees run serially or on the pool.
  const size_t n = x.rows();
  std::vector<common::Rng> tree_rngs;
  tree_rngs.reserve(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) tree_rngs.push_back(rng->Fork());

  // Sort every feature once for the whole forest; each tree then derives
  // its stripes of distinct bootstrap rows from this shared read-only index.
  FeaturePresort presort;
  presort.Build(x);

  const auto fit_tree = [&](size_t t) {
    common::Rng tree_rng = tree_rngs[t];
    std::vector<size_t> bootstrap(n);
    for (size_t i = 0; i < n; ++i) {
      bootstrap[i] = static_cast<size_t>(
          tree_rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    trees_[t].FitIndices(x, y, bootstrap, tree_options, &tree_rng, &presort);
  };

  if (pool != nullptr) {
    pool->ParallelFor(trees_.size(), fit_tree);
  } else {
    for (size_t t = 0; t < trees_.size(); ++t) fit_tree(t);
  }

  // Reduce importances in fixed tree order (independent of scheduling).
  for (const auto& tree : trees_) {
    const std::vector<double>& tree_importance = tree.feature_importance();
    for (size_t c = 0; c < importance_.size(); ++c) {
      importance_[c] += tree_importance[c];
    }
  }

  double total = 0.0;
  for (double v : importance_) total += v;
  if (total > 0.0) {
    for (double& v : importance_) v /= total;
  }
}

double RandomForest::Predict(const std::vector<double>& row) const {
  if (trees_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.Predict(row);
  return sum / static_cast<double>(trees_.size());
}

std::vector<size_t> RandomForest::RankFeatures() const {
  std::vector<size_t> order(importance_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return importance_[a] > importance_[b];
  });
  return order;
}

}  // namespace hunter::ml
