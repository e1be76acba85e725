// Row-order triangular solves, frozen as the oracles for the column-lane
// kernels: linalg::Cholesky (simd::CholeskyUpperInPlace) and the GP's
// multi-right-hand-side forward substitution (simd::ForwardSubstMulti).
// Shared by the gtests (tests/linalg/triangular_test.cc, tests/ml/gp_test.cc)
// and the seed GP (tests/ml/per_sample_ref.h), which the hot-path bench's
// gp_*_vs_seed gates run.
//
// These are the loops the kernels replaced, one element at a time:
// row-order Cholesky walks (i, j) with i outer, and the per-candidate
// forward substitution solves one right-hand side at a time. Every element's
// sum subtracts its k terms in ascending k, so the kernels — which only
// regroup independent elements into vector lanes — must reproduce them bit
// for bit. Reference implementations for tests and benches only; they never
// ship in src/.

#ifndef HUNTER_TESTS_LINALG_TRIANGULAR_REF_H_
#define HUNTER_TESTS_LINALG_TRIANGULAR_REF_H_

#include <cassert>
#include <cmath>
#include <cstddef>

#include "linalg/matrix.h"

namespace hunter::linalg::triref {

// Cholesky A = L Lᵀ in row order. Returns false at the first diagonal sum
// <= 0 and reports its column in `failed_column` (when non-null); rows
// before it, and row `failed_column` up to its diagonal, are filled.
inline bool RowOrderCholesky(const Matrix& a, Matrix* lower,
                             size_t* failed_column = nullptr) {
  assert(a.rows() == a.cols());
  const size_t n = a.rows();
  *lower = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a.At(i, j);
      for (size_t k = 0; k < j; ++k) sum -= lower->At(i, k) * lower->At(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          if (failed_column != nullptr) *failed_column = i;
          return false;
        }
        lower->At(i, j) = std::sqrt(sum);
      } else {
        lower->At(i, j) = sum / lower->At(j, j);
      }
    }
  }
  return true;
}

// w = L⁻¹ k for one right-hand side `k` of length n, written to `forward`;
// returns ‖w‖² accumulated in ascending j — the GP's per-candidate
// variance reduction.
inline double ForwardSubstPerCandidate(const Matrix& lower, const double* k,
                                       double* forward) {
  const size_t n = lower.rows();
  double reduction = 0.0;
  for (size_t j = 0; j < n; ++j) {
    double sum = k[j];
    for (size_t i = 0; i < j; ++i) sum -= lower.At(j, i) * forward[i];
    forward[j] = sum / lower.At(j, j);
    reduction += forward[j] * forward[j];
  }
  return reduction;
}

}  // namespace hunter::linalg::triref

#endif  // HUNTER_TESTS_LINALG_TRIANGULAR_REF_H_
