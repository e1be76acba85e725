#include "ml/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "tests/linalg/triangular_ref.h"
#include "tests/ml/per_sample_ref.h"

namespace hunter::ml {
namespace {

// Scores one query point through the batch API as a 1-row matrix.
GaussianProcess::Prediction Predict(const GaussianProcess& gp,
                                    const std::vector<double>& x) {
  std::vector<GaussianProcess::Prediction> out;
  gp.PredictBatch(linalg::Matrix(std::vector<std::vector<double>>{x}), &out);
  return out[0];
}

double ExpectedImprovement(const GaussianProcess& gp,
                           const std::vector<double>& x, double best_so_far) {
  std::vector<double> out;
  gp.ExpectedImprovementBatch(
      linalg::Matrix(std::vector<std::vector<double>>{x}), best_so_far, &out);
  return out[0];
}

TEST(GpTest, InterpolatesTrainingPoints) {
  linalg::Matrix x({{0.1}, {0.5}, {0.9}});
  std::vector<double> y = {1.0, 3.0, 2.0};
  GpOptions options;
  options.length_scale = 0.2;
  options.noise_variance = 1e-6;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(Predict(gp, x.Row(i)).mean, y[i], 0.1);
  }
}

TEST(GpTest, VarianceSmallNearDataLargeFar) {
  linalg::Matrix x({{0.4}, {0.5}, {0.6}});
  std::vector<double> y = {1.0, 1.1, 0.9};
  GpOptions options;
  options.length_scale = 0.1;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(x, y));
  const double near = Predict(gp, {0.5}).variance;
  const double far = Predict(gp, {0.0}).variance;
  EXPECT_LT(near, far);
  EXPECT_GT(far, 0.5);  // far points revert toward prior variance 1.0
}

TEST(GpTest, UnfittedPredictsPrior) {
  GaussianProcess gp;
  const auto p = Predict(gp, {0.5});
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
  EXPECT_NEAR(Predict(gp, {0.0}).mean, 11.0, 0.5);
}

TEST(GpTest, ExpectedImprovementPositiveWhereUncertain) {
  linalg::Matrix x(std::vector<std::vector<double>>{{0.2}, {0.3}});
  std::vector<double> y = {1.0, 1.2};
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y));
  const double ei_far = ExpectedImprovement(gp, {0.9}, 1.2);
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
  EXPECT_LT(ExpectedImprovement(gp, {0.2}, 2.0), 0.05);
  EXPECT_GT(ExpectedImprovement(gp, {0.5}, 2.0),
            ExpectedImprovement(gp, {0.2}, 2.0));
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

TEST(GpTest, RefitsOverGrowingWindowCarryNoState) {
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
    const auto pi = Predict(incremental, q);
    const auto pf = Predict(full, q);
    EXPECT_EQ(pi.mean, pf.mean);
    EXPECT_EQ(pi.variance, pf.variance);
    EXPECT_EQ(ExpectedImprovement(incremental, q, 0.4),
              ExpectedImprovement(full, q, 0.4));
  }
}

TEST(GpTest, RefitAfterSlidWindowCarriesNoState) {
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
    EXPECT_EQ(Predict(gp, q).mean, Predict(fresh, q).mean);
    EXPECT_EQ(Predict(gp, q).variance, Predict(fresh, q).variance);
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
  // The seed GP: per-pair kernel loop, per-candidate two-pass solve.
  sampleref::SeedGp seed_gp;
  ASSERT_TRUE(seed_gp.Fit(x, y));
  for (size_t r = 0; r < queries; ++r) {
    const auto scalar = seed_gp.Predict(q.Row(r));
    EXPECT_NEAR(batch[r].mean, scalar.mean, 1e-9);
    EXPECT_NEAR(batch[r].variance, scalar.variance, 1e-9);
    EXPECT_NEAR(ei_batch[r], seed_gp.ExpectedImprovement(q.Row(r), 0.7),
                1e-9);
  }
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// GaussianProcess as it scored before its solves became column-lane
// kernels, one candidate at a time and in plain loops: the Gram and cross
// dot products ascending, the clamped squared-distance expansion, the
// row-order Cholesky, the ascending mean, and the per-candidate forward
// substitution (tests/linalg/triangular_ref.h).
std::vector<GaussianProcess::Prediction> PerCandidatePredictions(
    const linalg::Matrix& x, const std::vector<double>& y,
    const linalg::Matrix& queries, const GpOptions& options) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  const double ls = options.length_scale * options.length_scale;
  const auto dot = [d](const double* a, const double* b) {
    double sum = 0.0;
    for (size_t c = 0; c < d; ++c) sum += a[c] * b[c];
    return sum;
  };
  std::vector<double> norms(n);
  for (size_t i = 0; i < n; ++i) {
    norms[i] = dot(x.Data() + i * d, x.Data() + i * d);
  }
  linalg::Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double g = dot(x.Data() + i * d, x.Data() + j * d);
      const double sq = std::max(0.0, norms[i] + norms[j] - 2.0 * g);
      k.At(j, i) = options.signal_variance * std::exp(-0.5 * sq / ls);
    }
    k.At(i, i) += options.noise_variance;
  }
  linalg::Matrix chol;
  EXPECT_TRUE(linalg::triref::RowOrderCholesky(k, &chol));
  double y_mean = 0.0;
  for (double v : y) y_mean += v;
  if (n > 0) y_mean /= static_cast<double>(n);
  std::vector<double> centered(n);
  for (size_t i = 0; i < n; ++i) centered[i] = y[i] - y_mean;
  const std::vector<double> alpha = linalg::CholeskySolve(chol, centered);

  std::vector<GaussianProcess::Prediction> out(queries.rows());
  std::vector<double> k_star(n), forward(n);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const double* row = queries.Data() + q * d;
    const double q_norm = dot(row, row);
    double mean = y_mean;
    for (size_t j = 0; j < n; ++j) {
      const double c = dot(row, x.Data() + j * d);
      const double sq = std::max(0.0, q_norm + norms[j] - 2.0 * c);
      k_star[j] = options.signal_variance * std::exp(-0.5 * sq / ls);
      mean += k_star[j] * alpha[j];
    }
    const double reduction =
        linalg::triref::ForwardSubstPerCandidate(chol, k_star.data(),
                                                 forward.data());
    out[q].mean = mean;
    out[q].variance = std::max(0.0, options.signal_variance - reduction);
  }
  return out;
}

TEST(GpTest, BatchMatchesPerCandidateReferenceBitForBit) {
  // Every block width of the candidate lanes (1..9 and two ragged
  // tuner-sized batches) against training sets from empty to the tuners'
  // 120-row window, at the tuners' 65 knobs.
  const size_t d = 65;
  common::Rng rng(104);
  std::vector<size_t> widths = {200, 203};
  for (size_t m = 1; m <= 9; ++m) widths.push_back(m);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{120}}) {
    linalg::Matrix x;
    std::vector<double> y;
    MakeRandomTraining(n, d, &rng, &x, &y);
    GaussianProcess gp;
    ASSERT_TRUE(gp.Fit(x, y));
    for (const size_t m : widths) {
      linalg::Matrix q(m, d);
      for (size_t r = 0; r < m; ++r) {
        for (size_t c = 0; c < d; ++c) q.At(r, c) = rng.Uniform(0.0, 1.0);
      }
      // The first candidate sits on a training point: zero distance.
      if (n > 0) {
        for (size_t c = 0; c < d; ++c) q.At(0, c) = x.At(n - 1, c);
      }
      std::vector<GaussianProcess::Prediction> got;
      gp.PredictBatch(q, &got);
      const std::vector<GaussianProcess::Prediction> want =
          PerCandidatePredictions(x, y, q, gp.options());
      ASSERT_EQ(got.size(), m);
      for (size_t r = 0; r < m; ++r) {
        EXPECT_EQ(Bits(got[r].mean), Bits(want[r].mean))
            << "n=" << n << " m=" << m << " candidate " << r;
        EXPECT_EQ(Bits(got[r].variance), Bits(want[r].variance))
            << "n=" << n << " m=" << m << " candidate " << r;
      }
    }
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
    total_err += std::abs(Predict(gp, q).mean - (std::sin(3 * q[0]) + q[1]));
  }
  EXPECT_LT(total_err / 20.0, 0.15);
}

}  // namespace
}  // namespace hunter::ml
