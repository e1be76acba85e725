#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/cart.h"
#include "ml/random_forest.h"
#include "tests/ml/cart_position_ref.h"

namespace hunter::ml {
namespace {

// y depends strongly on features 0 and 1, weakly on 2, not at all on 3..9.
void MakeKnobLikeData(size_t n, linalg::Matrix* x, std::vector<double>* y,
                      common::Rng* rng) {
  *x = linalg::Matrix(n, 10);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < 10; ++c) x->At(r, c) = rng->Uniform();
    (*y)[r] = 5.0 * x->At(r, 0) + 3.0 * std::sin(3.0 * x->At(r, 1)) +
              0.3 * x->At(r, 2) + 0.05 * rng->Gaussian();
  }
}

TEST(CartTest, FitsPiecewiseConstantFunction) {
  common::Rng rng(1);
  linalg::Matrix x(200, 1);
  std::vector<double> y(200);
  for (size_t r = 0; r < 200; ++r) {
    x.At(r, 0) = rng.Uniform();
    y[r] = x.At(r, 0) > 0.5 ? 10.0 : -10.0;
  }
  CartTree tree;
  tree.Fit(x, y, CartOptions{}, &rng);
  EXPECT_NEAR(tree.Predict({0.9}), 10.0, 0.5);
  EXPECT_NEAR(tree.Predict({0.1}), -10.0, 0.5);
}

TEST(CartTest, ConstantLabelsGiveSingleLeaf) {
  common::Rng rng(2);
  linalg::Matrix x(50, 3);
  std::vector<double> y(50, 7.0);
  for (size_t r = 0; r < 50; ++r) {
    for (size_t c = 0; c < 3; ++c) x.At(r, c) = rng.Uniform();
  }
  CartTree tree;
  tree.Fit(x, y, CartOptions{}, &rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict({0.5, 0.5, 0.5}), 7.0);
}

TEST(CartTest, RespectsMaxDepth) {
  common::Rng rng(3);
  linalg::Matrix x(512, 1);
  std::vector<double> y(512);
  for (size_t r = 0; r < 512; ++r) {
    x.At(r, 0) = static_cast<double>(r) / 512.0;
    y[r] = std::sin(20.0 * x.At(r, 0));
  }
  CartOptions options;
  options.max_depth = 2;
  CartTree tree;
  tree.Fit(x, y, options, &rng);
  // Depth-2 binary tree has at most 7 nodes.
  EXPECT_LE(tree.num_nodes(), 7u);
}

TEST(CartTest, ImportanceConcentratesOnInformativeFeature) {
  common::Rng rng(4);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(300, &x, &y, &rng);
  CartTree tree;
  tree.Fit(x, y, CartOptions{}, &rng);
  const auto& importance = tree.feature_importance();
  EXPECT_GT(importance[0], importance[5]);
  EXPECT_GT(importance[1], importance[5]);
}

// A knob-sifting-shaped dataset: d features in [0, 1], the label driven by
// the first three. `levels` > 0 quantizes every feature to that many values
// so distinct rows tie on every feature (enum and boolean knobs do).
void MakeSiftingData(size_t n, size_t d, int levels, common::Rng* rng,
                     linalg::Matrix* x, std::vector<double>* y) {
  *x = linalg::Matrix(n, d);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) {
      double v = rng->Uniform();
      if (levels > 0) v = std::floor(v * levels) / levels;
      x->At(r, c) = v;
    }
    (*y)[r] = 4.0 * x->At(r, 0) - 2.5 * x->At(r, 1) * x->At(r, 2) +
              0.1 * rng->Gaussian();
  }
}

// Fits CartTree and the position-list oracle on the same view from the same
// RNG state and requires the same tree, bit for bit.
void ExpectSameTreeAsPositions(const linalg::Matrix& x,
                               const std::vector<double>& y,
                               const std::vector<size_t>& view,
                               const CartOptions& options, uint64_t seed) {
  FeaturePresort presort;
  presort.Build(x);
  CartTree tree;
  posref::PositionCartTree reference;
  common::Rng rng(seed);
  common::Rng ref_rng(seed);
  tree.FitIndices(x, y, view, options, &rng, &presort);
  reference.FitIndices(x, y, view, options, &ref_rng, &presort);
  EXPECT_EQ(tree.num_nodes(), reference.num_nodes());
  EXPECT_EQ(tree.feature_importance(), reference.feature_importance());
  for (size_t r = 0; r < x.rows(); ++r) {
    const std::vector<double> row = x.Row(r);
    EXPECT_EQ(tree.Predict(row), reference.Predict(row)) << "row " << r;
  }
  // Both consumed the same feature-shuffle draws.
  EXPECT_EQ(rng.NextU64(), ref_rng.NextU64());
}

TEST(CartTest, DistinctRowFitMatchesPositionReference) {
  const size_t n = 160;
  const size_t d = 65;
  common::Rng data_rng(0xCA57);
  for (const int levels : {0, 4}) {  // continuous, then 4-level ties
    linalg::Matrix x;
    std::vector<double> y;
    MakeSiftingData(n, d, levels, &data_rng, &x, &y);
    const std::vector<double> constant(n, 3.25);

    // A bootstrap draw (copies 0..~6 per row) and a view of 24 rows taken
    // 160 times, where every row has several copies and most have >= 4.
    std::vector<size_t> bootstrap(n);
    for (size_t& row : bootstrap) {
      row = static_cast<size_t>(
          data_rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    std::vector<size_t> heavy(n);
    for (size_t& row : heavy) {
      row = static_cast<size_t>(data_rng.UniformInt(0, 23));
    }

    for (const std::vector<size_t>* view : {&bootstrap, &heavy}) {
      for (const size_t min_leaf : {1u, 2u, 5u}) {
        for (const size_t max_features : {0u, 1u, 33u}) {
          SCOPED_TRACE(::testing::Message()
                       << "levels " << levels << ", view "
                       << (view == &bootstrap ? "bootstrap" : "heavy")
                       << ", min_samples_leaf " << min_leaf
                       << ", max_features " << max_features);
          CartOptions options;
          options.min_samples_leaf = min_leaf;
          options.max_features = max_features;
          ExpectSameTreeAsPositions(x, y, *view, options, 17 + min_leaf);
          options.max_depth = 20;  // down to single-row leaves
          ExpectSameTreeAsPositions(x, y, *view, options, 29 + min_leaf);
        }
      }
      ExpectSameTreeAsPositions(x, constant, *view, CartOptions{}, 5);
    }
  }
}

TEST(CartTest, PresortOfAnotherShapeThrows) {
  common::Rng rng(12);
  linalg::Matrix x;
  std::vector<double> y;
  MakeSiftingData(30, 4, 0, &rng, &x, &y);
  linalg::Matrix other;
  std::vector<double> other_y;
  MakeSiftingData(31, 4, 0, &rng, &other, &other_y);
  FeaturePresort presort;
  presort.Build(other);
  std::vector<size_t> view(x.rows());
  for (size_t i = 0; i < view.size(); ++i) view[i] = i;
  CartTree tree;
  EXPECT_THROW(tree.FitIndices(x, y, view, CartOptions{}, &rng, &presort),
               std::invalid_argument);
}

TEST(CartTest, PresortRowIdLimitThrows) {
  // Zero columns: the matrix has UINT32_MAX rows but allocates nothing.
  const linalg::Matrix too_tall(size_t{UINT32_MAX}, 0);
  FeaturePresort presort;
  EXPECT_THROW(presort.Build(too_tall), std::invalid_argument);
}

TEST(RandomForestTest, DistinctRowForestMatchesPositionReferenceAtPaperScale) {
  // The largest knob-sifting pool of a HUNTER-20 run: 1340 samples of 65
  // tunable knobs, a 200-tree forest. Half the knobs are enum-like (8
  // levels) so distinct rows tie.
  const size_t n = 1340;
  const size_t d = 65;
  common::Rng data_rng(0x51F7);
  linalg::Matrix x;
  std::vector<double> y;
  MakeSiftingData(n, d, 0, &data_rng, &x, &y);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; c += 2) {
      x.At(r, c) = std::floor(x.At(r, c) * 8.0) / 8.0;
    }
  }
  RandomForestOptions options;  // 200 trees, half the features per split
  common::Rng rng(0x5EED);
  common::Rng ref_rng(0x5EED);
  RandomForest forest;
  forest.Fit(x, y, options, &rng);
  std::vector<posref::PositionCartTree> ref_trees;
  const std::vector<double> ref_importance =
      posref::PositionForestFit(x, y, options, &ref_rng, &ref_trees);
  EXPECT_EQ(forest.feature_importance(), ref_importance);
  for (size_t r = 0; r < n; r += 7) {
    const std::vector<double> row = x.Row(r);
    double ref_sum = 0.0;
    for (const auto& tree : ref_trees) ref_sum += tree.Predict(row);
    EXPECT_EQ(forest.Predict(row),
              ref_sum / static_cast<double>(ref_trees.size()))
        << "row " << r;
  }
}

TEST(RandomForestTest, PredictsSmoothFunction) {
  common::Rng rng(5);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(400, &x, &y, &rng);
  RandomForestOptions options;
  options.num_trees = 40;
  RandomForest forest;
  forest.Fit(x, y, options, &rng);
  // Check in-sample fit quality on a handful of points.
  double total_abs_err = 0.0;
  for (size_t r = 0; r < 50; ++r) {
    total_abs_err += std::abs(forest.Predict(x.Row(r)) - y[r]);
  }
  EXPECT_LT(total_abs_err / 50.0, 0.8);
}

TEST(RandomForestTest, ImportanceSumsToOne) {
  common::Rng rng(6);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(200, &x, &y, &rng);
  RandomForest forest;
  RandomForestOptions options;
  options.num_trees = 20;
  forest.Fit(x, y, options, &rng);
  double total = 0.0;
  for (double v : forest.feature_importance()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RandomForestTest, RanksInformativeKnobsFirst) {
  common::Rng rng(7);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(500, &x, &y, &rng);
  RandomForest forest;
  RandomForestOptions options;
  options.num_trees = 60;
  forest.Fit(x, y, options, &rng);
  const std::vector<size_t> ranking = forest.RankFeatures();
  // Features 0 and 1 must rank within the top 3.
  EXPECT_LE(std::min(ranking[0], ranking[1]), 1u);
  const auto& imp = forest.feature_importance();
  EXPECT_GT(imp[0] + imp[1], 0.6);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  linalg::Matrix x;
  std::vector<double> y;
  common::Rng data_rng(8);
  MakeKnobLikeData(150, &x, &y, &data_rng);
  RandomForestOptions options;
  options.num_trees = 10;

  common::Rng rng_a(99), rng_b(99);
  RandomForest fa, fb;
  fa.Fit(x, y, options, &rng_a);
  fb.Fit(x, y, options, &rng_b);
  EXPECT_EQ(fa.feature_importance(), fb.feature_importance());
  EXPECT_DOUBLE_EQ(fa.Predict(x.Row(3)), fb.Predict(x.Row(3)));
}

TEST(RandomForestTest, PaperScaleTwoHundredTrees) {
  // The paper's forest is 200 CARTs; ensure that scale trains fast enough
  // and produces a sane ranking on a small dataset.
  common::Rng rng(9);
  linalg::Matrix x;
  std::vector<double> y;
  MakeKnobLikeData(140, &x, &y, &rng);
  RandomForest forest;
  forest.Fit(x, y, RandomForestOptions{}, &rng);  // default 200 trees
  EXPECT_EQ(forest.num_trees(), 200u);
  const std::vector<size_t> ranking = forest.RankFeatures();
  EXPECT_EQ(ranking.size(), 10u);
}

}  // namespace
}  // namespace hunter::ml
