// Position-list CART, kept verbatim as the bit-identity oracle for
// ml::CartTree's distinct-row fit. Shared by the forest gtests
// (tests/ml/forest_test.cc) and the hot-path bench
// (bench/bench_micro_hotpaths.cc, gate rf_rows_vs_positions).
//
// PositionCartTree materializes every bootstrap position: a feature-major
// gather of the view's values and labels, one sorted position list per
// feature (derived from a shared FeaturePresort with a counting pass, or
// sorted per tree without one), and a stable partition of every list at
// every split. ml::CartTree works on the distinct rows of the view instead
// and must reproduce this tree exactly — node count, importances and every
// prediction, compared with EXPECT_EQ / tolerance 0.0.
//
// PositionForestFit is RandomForest::Fit's serial loop over
// PositionCartTree: the same per-tree RNG forks, bootstrap draws and
// shared presort, so a forest-level comparison isolates the tree.
//
// Reference implementation for tests and benches only; it never ships in
// src/.

#ifndef HUNTER_TESTS_ML_CART_POSITION_REF_H_
#define HUNTER_TESTS_ML_CART_POSITION_REF_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/cart.h"
#include "ml/random_forest.h"

namespace hunter::ml::posref {

struct SplitStats {
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t count = 0;

  void Add(double y) {
    sum += y;
    sum_sq += y * y;
    ++count;
  }
  void Remove(double y) {
    sum -= y;
    sum_sq -= y * y;
    --count;
  }
  // Sum of squared deviations from the mean (count * variance).
  double SumSquaredError() const {
    if (count == 0) return 0.0;
    return sum_sq - sum * sum / static_cast<double>(count);
  }
  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

class PositionCartTree {
 public:
  void Fit(const linalg::Matrix& x, const std::vector<double>& y,
           const CartOptions& options, common::Rng* rng) {
    std::vector<size_t> identity(x.rows());
    std::iota(identity.begin(), identity.end(), 0);
    FitIndices(x, y, identity, options, rng);
  }

  void FitIndices(const linalg::Matrix& x, const std::vector<double>& y,
                  const std::vector<size_t>& row_indices,
                  const CartOptions& options, common::Rng* rng,
                  const FeaturePresort* presort = nullptr) {
    nodes_.clear();
    importance_.assign(x.cols(), 0.0);
    if (row_indices.empty()) return;
    assert(row_indices.size() < UINT32_MAX);

    static thread_local Scratch scratch;
    Scratch& s = scratch;
    s.m = row_indices.size();
    s.d = x.cols();
    s.values.resize(s.d * s.m);
    s.labels.resize(s.m);
    s.features.clear();
    for (size_t i = 0; i < s.m; ++i) {
      const size_t row = row_indices[i];
      s.labels[i] = y[row];
      for (size_t f = 0; f < s.d; ++f) s.values[f * s.m + i] = x.At(row, f);
    }
    s.sorted.resize(s.d * s.m);
    if (presort != nullptr && presort->num_rows == x.rows() &&
        presort->num_features == s.d) {
      const size_t n = presort->num_rows;
      s.row_offset.assign(n + 1, 0);
      for (size_t i = 0; i < s.m; ++i) ++s.row_offset[row_indices[i] + 1];
      for (size_t r = 0; r < n; ++r) s.row_offset[r + 1] += s.row_offset[r];
      s.pos_by_row.resize(s.m);
      {
        std::vector<uint32_t> cursor(s.row_offset.begin(),
                                     s.row_offset.end() - 1);
        for (size_t i = 0; i < s.m; ++i) {
          s.pos_by_row[cursor[row_indices[i]]++] = static_cast<uint32_t>(i);
        }
      }
      for (size_t f = 0; f < s.d; ++f) {
        uint32_t* seg = s.sorted.data() + f * s.m;
        const uint32_t* rows = presort->sorted_rows.data() + f * n;
        size_t out = 0;
        for (size_t i = 0; i < n; ++i) {
          const uint32_t row = rows[i];
          for (uint32_t q = s.row_offset[row]; q < s.row_offset[row + 1];
               ++q) {
            seg[out++] = s.pos_by_row[q];
          }
        }
      }
    } else {
      for (size_t f = 0; f < s.d; ++f) {
        uint32_t* seg = s.sorted.data() + f * s.m;
        std::iota(seg, seg + s.m, 0u);
        const double* vals = s.values.data() + f * s.m;
        std::sort(seg, seg + s.m, [vals](uint32_t a, uint32_t b) {
          if (vals[a] != vals[b]) return vals[a] < vals[b];
          return a < b;
        });
      }
    }
    s.order.resize(s.m);
    std::iota(s.order.begin(), s.order.end(), 0);
    s.go_left.resize(s.m);
    s.tmp.resize(s.m);

    BuildNode(s, 0, s.m, 0, options, rng);
  }

  double Predict(const std::vector<double>& row) const {
    if (nodes_.empty()) return 0.0;
    int node = 0;
    while (!nodes_[static_cast<size_t>(node)].is_leaf) {
      const Node& n = nodes_[static_cast<size_t>(node)];
      node = row[n.feature] <= n.threshold ? n.left : n.right;
    }
    return nodes_[static_cast<size_t>(node)].value;
  }

  const std::vector<double>& feature_importance() const {
    return importance_;
  }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    bool is_leaf = true;
    double value = 0.0;
    size_t feature = 0;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
  };

  struct Scratch {
    size_t m = 0;
    size_t d = 0;
    std::vector<double> values;
    std::vector<double> labels;
    std::vector<uint32_t> sorted;
    std::vector<uint32_t> order;
    std::vector<uint8_t> go_left;
    std::vector<uint32_t> tmp;
    std::vector<size_t> features;
    std::vector<uint32_t> row_offset;
    std::vector<uint32_t> pos_by_row;
  };

  int BuildNode(Scratch& s, size_t begin, size_t end, int depth,
                const CartOptions& options, common::Rng* rng) {
    const size_t count = end - begin;
    SplitStats node_stats;
    for (size_t i = begin; i < end; ++i) {
      node_stats.Add(s.labels[s.order[i]]);
    }

    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_id].value = node_stats.Mean();

    const double node_sse = node_stats.SumSquaredError();
    if (depth >= options.max_depth || count < 2 * options.min_samples_leaf ||
        node_sse < 1e-12) {
      return node_id;
    }

    s.features.resize(s.d);
    std::iota(s.features.begin(), s.features.end(), 0);
    const size_t feature_budget =
        options.max_features == 0 ? s.d : std::min(options.max_features, s.d);
    if (feature_budget < s.d) rng->Shuffle(&s.features);
    s.features.resize(feature_budget);

    double best_gain = 1e-12;
    size_t best_feature = 0;
    double best_threshold = 0.0;

    for (const size_t feature : s.features) {
      const double* vals = s.values.data() + feature * s.m;
      const uint32_t* seg = s.sorted.data() + feature * s.m;
      SplitStats left;
      SplitStats right = node_stats;
      for (size_t i = begin; i + 1 < end; ++i) {
        const uint32_t pos = seg[i];
        left.Add(s.labels[pos]);
        right.Remove(s.labels[pos]);
        if (vals[pos] == vals[seg[i + 1]]) continue;
        if (left.count < options.min_samples_leaf ||
            right.count < options.min_samples_leaf) {
          continue;
        }
        const double gain =
            node_sse - left.SumSquaredError() - right.SumSquaredError();
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = feature;
          best_threshold = 0.5 * (vals[pos] + vals[seg[i + 1]]);
        }
      }
    }

    if (best_gain <= 1e-12) return node_id;

    const double* best_vals = s.values.data() + best_feature * s.m;
    size_t left_count = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t pos = s.order[i];
      const bool go_left = best_vals[pos] <= best_threshold;
      s.go_left[pos] = go_left ? 1 : 0;
      left_count += go_left ? 1 : 0;
    }
    if (left_count == 0 || left_count == count) return node_id;

    importance_[best_feature] += best_gain;

    const auto partition_segment = [&](uint32_t* seg) {
      size_t write = begin;
      size_t parked = 0;
      for (size_t i = begin; i < end; ++i) {
        const uint32_t pos = seg[i];
        const uint8_t flag = s.go_left[pos];
        seg[write] = pos;
        s.tmp[parked] = pos;
        write += flag;
        parked += static_cast<size_t>(1 - flag);
      }
      std::copy(s.tmp.begin(), s.tmp.begin() + static_cast<long>(parked),
                seg + write);
    };
    partition_segment(s.order.data());
    for (size_t f = 0; f < s.d; ++f) {
      partition_segment(s.sorted.data() + f * s.m);
    }
    const size_t split = begin + left_count;

    nodes_[node_id].is_leaf = false;
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    const int left_id = BuildNode(s, begin, split, depth + 1, options, rng);
    nodes_[node_id].left = left_id;
    const int right_id = BuildNode(s, split, end, depth + 1, options, rng);
    nodes_[node_id].right = right_id;
    return node_id;
  }

  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

// RandomForest::Fit's serial loop over PositionCartTree: returns the
// normalized importances and fills `trees` (tree order) for predictions.
inline std::vector<double> PositionForestFit(
    const linalg::Matrix& x, const std::vector<double>& y,
    const RandomForestOptions& options, common::Rng* rng,
    std::vector<PositionCartTree>* trees) {
  trees->assign(options.num_trees, PositionCartTree());
  std::vector<double> importance(x.cols(), 0.0);

  CartOptions tree_options = options.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<size_t>(
        std::ceil(options.feature_fraction * static_cast<double>(x.cols())));
    tree_options.max_features = std::max<size_t>(1, tree_options.max_features);
  }

  const size_t n = x.rows();
  std::vector<common::Rng> tree_rngs;
  tree_rngs.reserve(trees->size());
  for (size_t t = 0; t < trees->size(); ++t) tree_rngs.push_back(rng->Fork());

  FeaturePresort presort;
  presort.Build(x);

  for (size_t t = 0; t < trees->size(); ++t) {
    common::Rng tree_rng = tree_rngs[t];
    std::vector<size_t> bootstrap(n);
    for (size_t i = 0; i < n; ++i) {
      bootstrap[i] = static_cast<size_t>(
          tree_rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    (*trees)[t].FitIndices(x, y, bootstrap, tree_options, &tree_rng,
                           &presort);
  }

  for (const auto& tree : *trees) {
    const std::vector<double>& tree_importance = tree.feature_importance();
    for (size_t c = 0; c < importance.size(); ++c) {
      importance[c] += tree_importance[c];
    }
  }
  double total = 0.0;
  for (double v : importance) total += v;
  if (total > 0.0) {
    for (double& v : importance) v /= total;
  }
  return importance;
}

}  // namespace hunter::ml::posref

#endif  // HUNTER_TESTS_ML_CART_POSITION_REF_H_
