// Cyclic Jacobi symmetric eigensolver, kept verbatim as the independent
// oracle for linalg::SymmetricEigen (Householder tridiagonalization +
// implicit-shift QL). Shared by the eigensolver gtests
// (tests/linalg/matrix_test.cc) and the hot-path bench
// (bench/bench_micro_hotpaths.cc: gate pca_ql_vs_jacobi_eigenvalues, and the
// seed PCA pipeline that the pca_fit row times as its baseline).
//
// Jacobi rotations share no code with the QL path, so agreement on the
// spectrum (to 1e-8) is evidence about the QL solver rather than a
// restatement of it. Reference implementation for tests and benches only;
// it never ships in src/.

#ifndef HUNTER_TESTS_LINALG_JACOBI_REF_H_
#define HUNTER_TESTS_LINALG_JACOBI_REF_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "linalg/matrix.h"

namespace hunter::linalg::jacobiref {

// Eigenvalues descending with matching eigenvector columns, the ordering
// SymmetricEigen reports.
inline EigenResult SortedEigenResult(const std::vector<double>& diag,
                                     const Matrix& vectors) {
  const size_t n = diag.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t lhs, size_t rhs) { return diag[lhs] > diag[rhs]; });

  EigenResult result;
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (size_t out = 0; out < n; ++out) {
    const size_t src = order[out];
    result.eigenvalues[out] = diag[src];
    for (size_t k = 0; k < n; ++k) {
      result.eigenvectors.At(k, out) = vectors.At(k, src);
    }
  }
  return result;
}

inline EigenResult SymmetricEigenJacobi(const Matrix& symmetric,
                                        int max_sweeps = 64) {
  assert(symmetric.rows() == symmetric.cols());
  const size_t n = symmetric.rows();
  Matrix a = symmetric;
  Matrix v(n, n);
  for (size_t i = 0; i < n; ++i) v.At(i, i) = 1.0;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off_diagonal = 0.0;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) off_diagonal += std::abs(a.At(p, q));
    }
    if (off_diagonal < 1e-12) break;

    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = a.At(p, q);
        if (std::abs(apq) < 1e-15) continue;
        const double app = a.At(p, p);
        const double aqq = a.At(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        for (size_t k = 0; k < n; ++k) {
          const double akp = a.At(k, p);
          const double akq = a.At(k, q);
          a.At(k, p) = c * akp - s * akq;
          a.At(k, q) = s * akp + c * akq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double apk = a.At(p, k);
          const double aqk = a.At(q, k);
          a.At(p, k) = c * apk - s * aqk;
          a.At(q, k) = s * apk + c * aqk;
        }
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v.At(k, p);
          const double vkq = v.At(k, q);
          v.At(k, p) = c * vkp - s * vkq;
          v.At(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = a.At(i, i);
  return SortedEigenResult(diag, v);
}

}  // namespace hunter::linalg::jacobiref

#endif  // HUNTER_TESTS_LINALG_JACOBI_REF_H_
