#include "ml/gaussian_process.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "linalg/simd/simd.h"

namespace hunter::ml {

namespace {

// Standard normal PDF and CDF (via erfc) for Expected Improvement.
double NormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

double ExpectedImprovementFrom(double mean, double variance,
                               double best_so_far) {
  const double sigma = std::sqrt(variance);
  if (sigma < 1e-12) return std::max(0.0, mean - best_so_far);
  const double z = (mean - best_so_far) / sigma;
  return (mean - best_so_far) * NormalCdf(z) + sigma * NormalPdf(z);
}

}  // namespace

bool GaussianProcess::Fit(const linalg::Matrix& x,
                          const std::vector<double>& y) {
  assert(x.rows() == y.size());
  const size_t n = x.rows();
  const size_t d = x.cols();
  train_x_ = x;
  train_xt_.Reshape(d, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) train_xt_.At(c, i) = x.At(i, c);
  }

  // Gram matrix G = X Xᵀ in one GEMM, then K(i,j) from the squared-distance
  // expansion. The row norms are read off G's diagonal so the expansion
  // yields exactly zero distance on the diagonal (nᵢ + nᵢ − 2nᵢ).
  gram_.Reshape(n, n);
  if (n > 0) {
    linalg::GemmTransposedAInto(train_xt_.Data(), d, n, train_xt_.Data(), n,
                                /*accumulate=*/false, gram_.Data());
  }
  row_norms_.resize(n);
  for (size_t i = 0; i < n; ++i) row_norms_[i] = gram_.At(i, i);

  // Squared distances for row i's upper triangle in one vector kernel (the
  // clamped max(0, nᵢ + nⱼ − 2g) expansion, in place over the Gram row),
  // then the scalar exp — libm has no bit-reproducible vector form. K's
  // lower triangle goes straight into chol_, which Cholesky factors in
  // place.
  const double ls = options_.length_scale * options_.length_scale;
  chol_.Reshape(n, n);
  for (size_t i = 0; i < n; ++i) {
    double* sq = gram_.Data() + i * n;
    linalg::simd::SquaredDistInto(row_norms_[i], row_norms_.data() + i,
                                  sq + i, sq + i, n - i);
    for (size_t j = i; j < n; ++j) {
      chol_.At(j, i) = options_.signal_variance * std::exp(-0.5 * sq[j] / ls);
    }
    chol_.At(i, i) += options_.noise_variance;
  }
  if (!linalg::Cholesky(chol_, &chol_)) {
    fitted_ = false;
    return false;
  }

  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  if (n > 0) y_mean_ /= static_cast<double>(n);
  centered_.resize(n);
  for (size_t i = 0; i < n; ++i) centered_[i] = y[i] - y_mean_;
  alpha_ = linalg::CholeskySolve(chol_, centered_);
  fitted_ = true;
  return true;
}

// hunterlint: hot
void GaussianProcess::PredictBatch(const linalg::Matrix& x,
                                   std::vector<Prediction>* out) const {
  const size_t m = x.rows();
  out->assign(m, Prediction{});
  if (!fitted_) {
    for (auto& p : *out) p.variance = options_.signal_variance;
    return;
  }
  const size_t n = train_x_.rows();
  const size_t d = train_x_.cols();
  assert(x.cols() == d);
  if (m == 0) return;

  // Candidates are the lanes from here on: K* is built n x m (one training
  // row per matrix row, one candidate per column), the layout in which the
  // mean and the forward substitution vectorize across candidates.
  query_t_.Reshape(d, m);
  query_norms_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    // Ascending self-dot: the contraction order of the Gram GEMM whose
    // diagonal holds the training rows' norms.
    const linalg::RowSpan q = x.RowView(i);
    double norm = 0.0;
    for (size_t k = 0; k < d; ++k) {
      norm += q[k] * q[k];
      query_t_.At(k, i) = q[k];
    }
    query_norms_[i] = norm;
  }

  // Cross-kernel in one GEMM, C = X Xqᵀ (n x m), then the same expansion
  // the training kernel uses and the scalar exp (libm, not reproducibly
  // vectorizable), in place.
  k_star_.Reshape(n, m);
  if (n > 0) {
    linalg::GemmInto(train_x_.Data(), n, d, query_t_.Data(), m,
                     /*accumulate=*/false, k_star_.Data());
  }
  const double ls = options_.length_scale * options_.length_scale;
  for (size_t j = 0; j < n; ++j) {
    double* row = k_star_.Data() + j * m;
    linalg::simd::SquaredDistInto(row_norms_[j], query_norms_.data(), row,
                                  row, m);
    for (size_t i = 0; i < m; ++i) {
      row[i] = options_.signal_variance * std::exp(-0.5 * row[i] / ls);
    }
  }

  // Mean y_mean + k*ᵀα for every candidate: a one-row GEMM accumulating
  // onto y_mean, j ascending.
  means_.assign(m, y_mean_);
  if (n > 0) {
    linalg::GemmInto(alpha_.data(), 1, n, k_star_.Data(), m,
                     /*accumulate=*/true, means_.data());
  }
  // Forward substitution only: with w = L^{-1} k*, the quadratic form
  // k*ᵀ (L Lᵀ)^{-1} k* is exactly wᵀw — a back substitution through Lᵀ
  // would only re-derive it. One multi-right-hand-side solve over K*.
  reductions_.resize(m);
  linalg::simd::ForwardSubstMulti(chol_.Data(), n, k_star_.Data(), m,
                                  reductions_.data());
  for (size_t i = 0; i < m; ++i) {
    // k(x,x) via the expansion is exactly signal_variance (zero distance).
    (*out)[i].mean = means_[i];
    (*out)[i].variance =
        std::max(0.0, options_.signal_variance - reductions_[i]);
  }
}

// hunterlint: hot
void GaussianProcess::ExpectedImprovementBatch(const linalg::Matrix& x,
                                               double best_so_far,
                                               std::vector<double>* out) const {
  PredictBatch(x, &batch_predictions_);
  out->resize(batch_predictions_.size());
  for (size_t i = 0; i < batch_predictions_.size(); ++i) {
    (*out)[i] = ExpectedImprovementFrom(batch_predictions_[i].mean,
                                        batch_predictions_[i].variance,
                                        best_so_far);
  }
}

}  // namespace hunter::ml
