// Random Forest regressor for knob importance ranking (§3.2.2).
//
// The paper's configuration: 200 CARTs, each trained on a bootstrap sample
// with a random feature subset; per-knob importance is the average impurity
// reduction across trees, and the top-k knobs by importance are kept for
// tuning (k = 20 in the paper).

#ifndef HUNTER_ML_RANDOM_FOREST_H_
#define HUNTER_ML_RANDOM_FOREST_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "ml/cart.h"

namespace hunter::ml {

struct RandomForestOptions {
  size_t num_trees = 200;
  CartOptions tree;
  // Fraction of features each tree sees; the effective `max_features` is
  // ceil(fraction * num_features) unless tree.max_features is set explicitly.
  double feature_fraction = 0.5;
};

class RandomForest {
 public:
  // Fits the forest. Every tree draws from an RNG forked from `rng` up
  // front, in tree order, so the result depends only on the incoming RNG
  // state — with a `pool` the trees fit in parallel and the forest is still
  // bit-identical to the serial fit, regardless of scheduling (the same
  // determinism discipline as controller::FaultInjector). The trees fit on
  // the pool's workers plus the calling thread (ThreadPool::ParallelFor);
  // passing nullptr fits serially.
  void Fit(const linalg::Matrix& x, const std::vector<double>& y,
           const RandomForestOptions& options, common::Rng* rng,
           common::ThreadPool* pool = nullptr);

  double Predict(const std::vector<double>& row) const;

  // Mean impurity reduction per feature, normalized to sum to 1.
  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  // Feature indices sorted by descending importance.
  std::vector<size_t> RankFeatures() const;

  size_t num_trees() const { return trees_.size(); }

 private:
  std::vector<CartTree> trees_;
  std::vector<double> importance_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_RANDOM_FOREST_H_
