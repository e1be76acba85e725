#include "ml/gaussian_process.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace hunter::ml {
namespace {

TEST(GpTest, InterpolatesTrainingPoints) {
  linalg::Matrix x({{0.1}, {0.5}, {0.9}});
  std::vector<double> y = {1.0, 3.0, 2.0};
  GpOptions options;
  options.length_scale = 0.2;
  options.noise_variance = 1e-6;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(gp.Predict(x.Row(i)).mean, y[i], 0.1);
  }
}

TEST(GpTest, VarianceSmallNearDataLargeFar) {
  linalg::Matrix x({{0.4}, {0.5}, {0.6}});
  std::vector<double> y = {1.0, 1.1, 0.9};
  GpOptions options;
  options.length_scale = 0.1;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  const double near = gp.Predict({0.5}).variance;
  const double far = gp.Predict({0.0}).variance;
  EXPECT_LT(near, far);
  EXPECT_GT(far, 0.5);  // far points revert toward prior variance 1.0
}

TEST(GpTest, UnfittedPredictsPrior) {
  GaussianProcess gp;
  const auto p = gp.Predict({0.5});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
}

TEST(GpTest, MeanRevertsToDataMeanFarAway) {
  linalg::Matrix x({{0.45}, {0.5}, {0.55}});
  std::vector<double> y = {10.0, 12.0, 11.0};
  GpOptions options;
  options.length_scale = 0.05;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  EXPECT_NEAR(gp.Predict({0.0}).mean, 11.0, 0.5);
}

TEST(GpTest, ExpectedImprovementPositiveWhereUncertain) {
  linalg::Matrix x(std::vector<std::vector<double>>{{0.2}, {0.3}});
  std::vector<double> y = {1.0, 1.2};
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y));
  const double ei_far = gp.ExpectedImprovement({0.9}, 1.2);
  EXPECT_GT(ei_far, 0.0);
}

TEST(GpTest, ExpectedImprovementNearZeroAtDominatedKnownPoint) {
  linalg::Matrix x(std::vector<std::vector<double>>{{0.2}, {0.8}});
  std::vector<double> y = {0.0, 2.0};
  GpOptions options;
  options.length_scale = 0.1;
  options.noise_variance = 1e-6;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  // At the known bad point, EI over best=2.0 should be tiny.
  EXPECT_LT(gp.ExpectedImprovement({0.2}, 2.0), 0.05);
  EXPECT_GT(gp.ExpectedImprovement({0.5}, 2.0),
            gp.ExpectedImprovement({0.2}, 2.0));
}

// ---------------------------------------------------------------------------
// Refit and batch-scoring contracts (DESIGN.md §11).

void MakeRandomTraining(size_t n, size_t d, common::Rng* rng, linalg::Matrix* x,
                        std::vector<double>* y) {
  *x = linalg::Matrix(n, d);
  y->resize(n);
  for (size_t r = 0; r < n; ++r) {
    double label = 0.0;
    for (size_t c = 0; c < d; ++c) {
      const double v = rng->Uniform(0.0, 1.0);
      x->At(r, c) = v;
      label += v * static_cast<double>(c + 1) * 0.3;
    }
    (*y)[r] = std::sin(label) + rng->Gaussian(0.0, 0.05);
  }
}

linalg::Matrix RowSlice(const linalg::Matrix& x, size_t begin, size_t end) {
  linalg::Matrix out(end - begin, x.cols());
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < x.cols(); ++c) out.At(r - begin, c) = x.At(r, c);
  }
  return out;
}

TEST(GpTest, IncrementalFitMatchesFullRefit) {
  // A GP refitted once per new observation over a growing window (the
  // tuners' warm-up) ends in exactly the state of one fit on the whole set:
  // Fit refactorizes from scratch and carries nothing over between calls.
  common::Rng rng(101);
  const size_t n = 30;
  const size_t d = 5;
  linalg::Matrix x;
  std::vector<double> y;
  MakeRandomTraining(n, d, &rng, &x, &y);

  GaussianProcess incremental;
  for (size_t m = 3; m <= n; ++m) {
    std::vector<double> ym(y.begin(), y.begin() + static_cast<long>(m));
    ASSERT_TRUE(incremental.Fit(RowSlice(x, 0, m), ym));
  }

  GaussianProcess full;
  ASSERT_TRUE(full.Fit(x, y));

  for (int p = 0; p < 20; ++p) {
    std::vector<double> q(d);
    for (double& v : q) v = rng.Uniform(0.0, 1.0);
    const auto pi = incremental.Predict(q);
    const auto pf = full.Predict(q);
    EXPECT_EQ(pi.mean, pf.mean);
    EXPECT_EQ(pi.variance, pf.variance);
    EXPECT_EQ(incremental.ExpectedImprovement(q, 0.4),
              full.ExpectedImprovement(q, 0.4));
  }
}

TEST(GpTest, SlidingWindowFallsBackToFullRefit) {
  common::Rng rng(102);
  const size_t n = 12;
  linalg::Matrix x;
  std::vector<double> y;
  MakeRandomTraining(n, 3, &rng, &x, &y);

  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(RowSlice(x, 0, 8), {y.begin(), y.begin() + 8}));
  ASSERT_TRUE(gp.Fit(RowSlice(x, 0, 9), {y.begin(), y.begin() + 9}));
  // A slid window (drops the oldest row) refits to the same state as a
  // fresh GP fitted on that window alone.
  ASSERT_TRUE(gp.Fit(RowSlice(x, 1, 10), {y.begin() + 1, y.begin() + 10}));

  GaussianProcess fresh;
  ASSERT_TRUE(fresh.Fit(RowSlice(x, 1, 10), {y.begin() + 1, y.begin() + 10}));
  for (int p = 0; p < 10; ++p) {
    std::vector<double> q = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    EXPECT_EQ(gp.Predict(q).mean, fresh.Predict(q).mean);
    EXPECT_EQ(gp.Predict(q).variance, fresh.Predict(q).variance);
  }
}

TEST(GpTest, BatchPredictionMatchesScalarPath) {
  common::Rng rng(103);
  const size_t n = 25;
  const size_t d = 4;
  linalg::Matrix x;
  std::vector<double> y;
  MakeRandomTraining(n, d, &rng, &x, &y);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y));

  const size_t queries = 40;
  linalg::Matrix q(queries, d);
  for (size_t r = 0; r < queries; ++r) {
    for (size_t c = 0; c < d; ++c) q.At(r, c) = rng.Uniform(-0.2, 1.2);
  }
  std::vector<GaussianProcess::Prediction> batch;
  gp.PredictBatch(q, &batch);
  std::vector<double> ei_batch;
  gp.ExpectedImprovementBatch(q, 0.7, &ei_batch);
  ASSERT_EQ(batch.size(), queries);
  ASSERT_EQ(ei_batch.size(), queries);
  for (size_t r = 0; r < queries; ++r) {
    const auto scalar = gp.Predict(q.Row(r));
    EXPECT_NEAR(batch[r].mean, scalar.mean, 1e-9);
    EXPECT_NEAR(batch[r].variance, scalar.variance, 1e-9);
    EXPECT_NEAR(ei_batch[r], gp.ExpectedImprovement(q.Row(r), 0.7), 1e-9);
  }
}

TEST(GpTest, BatchOnUnfittedGpReturnsPrior) {
  GaussianProcess gp;
  linalg::Matrix q(std::vector<std::vector<double>>{{0.1}, {0.9}});
  std::vector<GaussianProcess::Prediction> batch;
  gp.PredictBatch(q, &batch);
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& p : batch) {
    EXPECT_DOUBLE_EQ(p.mean, 0.0);
    EXPECT_DOUBLE_EQ(p.variance, 1.0);
  }
}

TEST(GpTest, FitsMultiDimensionalFunction) {
  common::Rng rng(1);
  const size_t n = 60;
  linalg::Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x.At(i, 0) = rng.Uniform();
    x.At(i, 1) = rng.Uniform();
    y[i] = std::sin(3 * x.At(i, 0)) + x.At(i, 1);
  }
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y));
  double total_err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> q = {rng.Uniform(), rng.Uniform()};
    total_err += std::abs(gp.Predict(q).mean - (std::sin(3 * q[0]) + q[1]));
  }
  EXPECT_LT(total_err / 20.0, 0.15);
}

}  // namespace
}  // namespace hunter::ml
