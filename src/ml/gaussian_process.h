// Gaussian-process regression with a squared-exponential kernel plus the
// Expected-Improvement acquisition, implementing the surrogate model used by
// the OtterTune / iTuned line of work (§1 "Current Landscape") and by the
// ResTune-style meta-learning baseline.
//
// The GP sits inside the BO tuners' inner loop (one refit per Observe, one
// acquisition evaluation per candidate per Propose), so the hot paths follow
// the same playbook as the batched MLP/DDPG work (DESIGN.md §8, §11):
//
//  * The kernel matrix is built from the squared-distance expansion
//    ‖a − b‖² = ‖a‖² + ‖b‖² − 2 aᵀb with the Gram matrix computed by one
//    GemmTransposedAInto call, instead of an allocating per-row double loop.
//  * PredictBatch / ExpectedImprovementBatch score a whole candidate matrix
//    in one GEMM-backed pass over reused scratch arenas, with the posterior
//    variance taken from the forward substitution alone
//    (σ² = k(x,x) − ‖L⁻¹k*‖², the identity the two-pass solve computes the
//    long way). Batch results match the per-candidate path to 1e-9
//    (asserted in bench_micro_hotpaths before any timing is trusted).

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
  Prediction Predict(const std::vector<double>& x) const;

  // Expected improvement over `best_so_far` (maximization convention).
  double ExpectedImprovement(const std::vector<double>& x,
                             double best_so_far) const;

  // Batch versions: one row of `x` per query point, scored in a single
  // GEMM-backed pass over reused scratch (not thread-safe, like the rest of
  // the class). `out` is resized to x.rows().
  void PredictBatch(const linalg::Matrix& x,
                    std::vector<Prediction>* out) const;
  void ExpectedImprovementBatch(const linalg::Matrix& x, double best_so_far,
                                std::vector<double>* out) const;

  const GpOptions& options() const { return options_; }

 private:
  double Kernel(linalg::RowSpan a, linalg::RowSpan b) const;

  GpOptions options_;
  bool fitted_ = false;
  linalg::Matrix train_x_;         // n x d
  linalg::Matrix train_xt_;        // d x n, for the batch cross-kernel GEMM
  std::vector<double> row_norms_;  // ‖x_i‖², bit-matching the Gram diagonal
  double y_mean_ = 0.0;
  linalg::Matrix chol_;            // Cholesky factor of K + noise I
  std::vector<double> alpha_;      // (K + noise I)^-1 (y - mean)

  // Scratch arenas for the batch paths (allocation-free in steady state).
  mutable linalg::Matrix cross_;           // m x n cross-kernel
  mutable std::vector<double> query_norms_;
  mutable std::vector<double> k_star_;     // per-query kernel row
  mutable std::vector<double> forward_;    // L^{-1} k* per query
  mutable std::vector<Prediction> batch_predictions_;
};

}  // namespace hunter::ml

#endif  // HUNTER_ML_GAUSSIAN_PROCESS_H_
