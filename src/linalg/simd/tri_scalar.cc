// Scalar fallbacks for the triangular kernels. Both loop nests keep the
// per-element order of a textbook substitution (each sum starts from its
// right-hand side and subtracts its k terms in ascending k, then divides by
// the diagonal) but walk the independent elements innermost, one row of
// them at a time, so the AVX2 lane is a register-blocked image of the same
// loops. See simd.h for the contracts.

#include "linalg/simd/simd.h"

#include <cmath>

namespace hunter::linalg::simd {

// hunterlint: hot
bool CholeskyUpperInPlaceScalar(double* u, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    double* col = u + j * n;  // column j of L, rows i >= j at col[i]
    double diag = col[j];
    for (size_t k = 0; k < j; ++k) diag -= u[k * n + j] * u[k * n + j];
    if (diag <= 0.0) return false;
    const double d = std::sqrt(diag);
    for (size_t k = 0; k < j; ++k) {
      const double* prev = u + k * n;
      const double l_jk = prev[j];
      for (size_t i = j + 1; i < n; ++i) col[i] -= prev[i] * l_jk;
    }
    col[j] = d;
    for (size_t i = j + 1; i < n; ++i) col[i] = col[i] / d;
  }
  return true;
}

// hunterlint: hot
void ForwardSubstMultiScalar(const double* lower, size_t n, double* b,
                             size_t m, double* sq_norms) {
  for (size_t c = 0; c < m; ++c) sq_norms[c] = 0.0;
  for (size_t j = 0; j < n; ++j) {
    double* row = b + j * m;
    const double* l_row = lower + j * n;
    for (size_t k = 0; k < j; ++k) {
      const double l_jk = l_row[k];
      const double* w_k = b + k * m;
      for (size_t c = 0; c < m; ++c) row[c] -= l_jk * w_k[c];
    }
    const double d = l_row[j];
    for (size_t c = 0; c < m; ++c) {
      row[c] = row[c] / d;
      sq_norms[c] += row[c] * row[c];
    }
  }
}

}  // namespace hunter::linalg::simd
