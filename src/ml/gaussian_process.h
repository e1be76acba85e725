// Gaussian-process regression with a squared-exponential kernel plus the
// Expected-Improvement acquisition, implementing the surrogate model used by
// the OtterTune / iTuned line of work (§1 "Current Landscape") and by the
// ResTune-style meta-learning baseline.
//
// The GP sits inside the BO tuners' inner loop (one refit per Observe, one
// scoring pass over the whole candidate set per Propose), so the hot paths
// follow the same playbook as the batched MLP/DDPG work (DESIGN.md §8, §11):
//
//  * The kernel matrix is built from the squared-distance expansion
//    ‖a − b‖² = ‖a‖² + ‖b‖² − 2 aᵀb with the Gram matrix computed by one
//    GemmTransposedAInto call, instead of an allocating per-row double loop.
//  * Fit writes K's lower triangle straight into the factor's storage and
//    factors it in place with the column-lane linalg::Cholesky; its Gram,
//    squared-distance and centering buffers are reused across fits.
//  * PredictBatch / ExpectedImprovementBatch score a whole candidate matrix
//    in one pass over reused scratch arenas with candidates as the vector
//    lanes: the n x m cross-kernel K* = X Xqᵀ in one GEMM, the means as a
//    one-row GEMM (α ascending onto the training mean), and the posterior
//    variance from one multi-right-hand-side forward substitution
//    W = L⁻¹K* (σ² = k(x,x) − ‖L⁻¹k*‖², the identity a two-pass solve
//    computes the long way). Each candidate's sums keep the per-candidate
//    order, so results are bit-identical to the per-candidate loops of
//    tests/linalg/triangular_ref.h (gp_test) and match the seed's GP
//    (tests/ml/per_sample_ref.h) to 1e-9, asserted in gp_test and in
//    bench_micro_hotpaths before any timing is trusted.

#ifndef HUNTER_ML_GAUSSIAN_PROCESS_H_
#define HUNTER_ML_GAUSSIAN_PROCESS_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace hunter::ml {

struct GpOptions {
  double length_scale = 0.9;   // shared SE length scale in normalized space
  double signal_variance = 1.0;
  double noise_variance = 5e-3;
};

class GaussianProcess {
 public:
  explicit GaussianProcess(GpOptions options = {}) : options_(options) {}

  // Fits on inputs `x` (rows = observations in [0,1]^d) and targets `y`.
  // Returns false if the kernel matrix is numerically singular.
  bool Fit(const linalg::Matrix& x, const std::vector<double>& y);

  bool fitted() const { return fitted_; }
  size_t num_observations() const { return train_x_.rows(); }

  // Posterior mean and variance at a query point.
  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
  };

  // Posterior at each row of `x` (one query point per row), and the
  // expected improvement over `best_so_far` (maximization convention),
  // scored in a single GEMM-backed pass over reused scratch (not
  // thread-safe, like the rest of the class). `out` is resized to x.rows().
  void PredictBatch(const linalg::Matrix& x,
                    std::vector<Prediction>* out) const;
  void ExpectedImprovementBatch(const linalg::Matrix& x, double best_so_far,
                                std::vector<double>* out) const;

  const GpOptions& options() const { return options_; }

 private:
  GpOptions options_;
  bool fitted_ = false;
  linalg::Matrix train_x_;         // n x d
  std::vector<double> row_norms_;  // ‖x_i‖², bit-matching the Gram diagonal
  double y_mean_ = 0.0;
  linalg::Matrix chol_;            // Cholesky factor of K + noise I
  std::vector<double> alpha_;      // (K + noise I)^-1 (y - mean)

  // Scratch arenas (allocation-free in steady state). Fit:
  linalg::Matrix train_xt_;        // d x n, for the Gram GEMM
  linalg::Matrix gram_;            // n x n Gram, then squared distances
  std::vector<double> centered_;   // y - mean
  // The batch paths:
  mutable linalg::Matrix query_t_;         // d x m, candidates as columns
  mutable std::vector<double> query_norms_;
  mutable linalg::Matrix k_star_;          // n x m cross-kernel, then L^-1 K*
  mutable std::vector<double> means_;
  mutable std::vector<double> reductions_;  // ‖L^-1 k*‖² per candidate
  mutable std::vector<Prediction> batch_predictions_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_GAUSSIAN_PROCESS_H_
