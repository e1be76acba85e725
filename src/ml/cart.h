// Classification-and-regression tree (CART) used as the base learner of the
// Random Forest knob-sifting step (§3.2.2). The paper builds 200 CARTs whose
// impurity reductions are averaged into per-knob importance scores; here the
// trees are regression trees on the performance/fitness label, and impurity
// is variance (the continuous analogue of Gini used by scikit-learn's
// regressor, which the paper's implementation relies on).

#ifndef HUNTER_ML_CART_H_
#define HUNTER_ML_CART_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace hunter::ml {

struct CartOptions {
  int max_depth = 8;
  size_t min_samples_leaf = 2;
  // Number of candidate features per split; 0 means "use all features".
  size_t max_features = 0;
};

// Shared per-dataset sort index: for every feature, the rows of `x` in
// ascending feature-value order (ties by row index), plus a feature-major
// copy of `x`. A forest builds this once; every tree derives its stripes of
// distinct bootstrap rows from it with one branchless pass per feature and
// reads feature values from `columns` instead of gathering its own copy.
// Read-only after Build, so the pool workers can share one instance without
// synchronization.
struct FeaturePresort {
  size_t num_rows = 0;
  size_t num_features = 0;
  // 32-bit row ids: the index stripes are the hottest data the splitter
  // streams, and halving them doubles the rows per cache line.
  std::vector<uint32_t> sorted_rows;  // num_features stripes of num_rows
  std::vector<double> columns;        // num_features stripes of num_rows

  // Throws std::invalid_argument when `x` has UINT32_MAX rows or more (row
  // ids are 32-bit).
  void Build(const linalg::Matrix& x);
};

class CartTree {
 public:
  // Fits on data rows `x` with labels `y`; `rng` drives feature subsampling.
  void Fit(const linalg::Matrix& x, const std::vector<double>& y,
           const CartOptions& options, common::Rng* rng);

  // Fits on a view of `x` given by `row_indices` (duplicates allowed — this
  // is how the forest expresses bootstrap samples without materializing a
  // copied design matrix). Fit(x, y, ...) is FitIndices with the identity
  // index set. `presort` must be built for `x`; without one, FitIndices
  // builds it. Throws std::invalid_argument when `presort` has another
  // shape than `x` or the view holds 2^31 rows or more.
  void FitIndices(const linalg::Matrix& x, const std::vector<double>& y,
                  const std::vector<size_t>& row_indices,
                  const CartOptions& options, common::Rng* rng,
                  const FeaturePresort* presort = nullptr);

  double Predict(const std::vector<double>& row) const;

  // Total impurity (variance) reduction attributed to each feature,
  // weighted by the number of samples reaching the split.
  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    bool is_leaf = true;
    double value = 0.0;     // leaf prediction
    size_t feature = 0;     // split feature
    double threshold = 0.0; // go left if x[feature] <= threshold
    int left = -1;
    int right = -1;
  };

  // Per-fit working set: how many copies of each row the view holds, the
  // view's rows in draw order, and one stripe per feature of the view's
  // distinct rows in ascending value order. A node owns a range of each.
  struct Scratch;

  int BuildNode(Scratch& s, size_t begin, size_t end, size_t row_begin,
                size_t row_end, int depth, const CartOptions& options,
                common::Rng* rng);

  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_CART_H_
