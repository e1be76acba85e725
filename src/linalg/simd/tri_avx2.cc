// AVX2 lanes for the triangular kernels. Compiled with -mavx2 -mfma; the
// #else branch provides scalar-forwarding stubs.
//
// Bit-exactness vs tri_scalar.cc: both kernels vectorize across elements
// that do not feed each other — the rows below the diagonal of one
// Cholesky column, the right-hand sides of one forward substitution — and
// keep every element's substitution sum in one lane: start from its
// right-hand side, subtract each k term (vmulpd, then vsubpd; never a
// fused vfnmadd, -ffp-contract=off) in ascending k, divide by the diagonal
// (vdivpd). The Cholesky diagonal, its `<= 0` rejection and the sqrt stay
// scalar, checked column by column in the scalar order. Four vectors are in
// flight per block, so each k step issues four independent subtract chains
// instead of waiting on one; that already saturates the two FP ports with
// the unfused multiply and subtract (eight vectors measured no faster).
// Blocks of one vector and scalar columns (the exact scalar expression)
// cover the ragged ends.

#include "linalg/simd/simd.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

namespace hunter::linalg::simd {

namespace {

constexpr size_t kVecsInFlight = 4;

// Rows [i, i + 4 * kVecs) of Cholesky column j (row j of u), whose
// diagonal is already d.
template <size_t kVecs>
inline void CholeskyColumnBlock(const double* u, size_t n, size_t j, size_t i,
                                double d, double* col) {
  __m256d acc[kVecs];
  for (size_t v = 0; v < kVecs; ++v) acc[v] = _mm256_loadu_pd(col + i + 4 * v);
  for (size_t k = 0; k < j; ++k) {
    const double* prev = u + k * n + i;
    const __m256d l_jk = _mm256_set1_pd(u[k * n + j]);
    for (size_t v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_sub_pd(
          acc[v], _mm256_mul_pd(_mm256_loadu_pd(prev + 4 * v), l_jk));
    }
  }
  const __m256d dv = _mm256_set1_pd(d);
  for (size_t v = 0; v < kVecs; ++v) {
    _mm256_storeu_pd(col + i + 4 * v, _mm256_div_pd(acc[v], dv));
  }
}

// Columns [c0, c0 + 4 * kVecs) of the forward substitution, every row.
template <size_t kVecs>
inline void ForwardSubstBlock(const double* lower, size_t n, double* b,
                              size_t m, size_t c0, double* sq_norms) {
  __m256d norm[kVecs];
  for (size_t v = 0; v < kVecs; ++v) norm[v] = _mm256_setzero_pd();
  for (size_t j = 0; j < n; ++j) {
    const double* l_row = lower + j * n;
    double* row = b + j * m + c0;
    __m256d acc[kVecs];
    for (size_t v = 0; v < kVecs; ++v) acc[v] = _mm256_loadu_pd(row + 4 * v);
    for (size_t k = 0; k < j; ++k) {
      const double* w_k = b + k * m + c0;
      const __m256d l_jk = _mm256_set1_pd(l_row[k]);
      for (size_t v = 0; v < kVecs; ++v) {
        acc[v] = _mm256_sub_pd(
            acc[v], _mm256_mul_pd(l_jk, _mm256_loadu_pd(w_k + 4 * v)));
      }
    }
    const __m256d dv = _mm256_set1_pd(l_row[j]);
    for (size_t v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_div_pd(acc[v], dv);
      _mm256_storeu_pd(row + 4 * v, acc[v]);
      norm[v] = _mm256_add_pd(norm[v], _mm256_mul_pd(acc[v], acc[v]));
    }
  }
  for (size_t v = 0; v < kVecs; ++v) {
    _mm256_storeu_pd(sq_norms + c0 + 4 * v, norm[v]);
  }
}

}  // namespace

// hunterlint: hot
bool CholeskyUpperInPlaceAvx2(double* u, size_t n) {
  constexpr size_t kBlock = 4 * kVecsInFlight;
  for (size_t j = 0; j < n; ++j) {
    double* col = u + j * n;
    double diag = col[j];
    for (size_t k = 0; k < j; ++k) diag -= u[k * n + j] * u[k * n + j];
    if (diag <= 0.0) return false;
    const double d = std::sqrt(diag);
    col[j] = d;
    size_t i = j + 1;
    for (; i + kBlock <= n; i += kBlock) {
      CholeskyColumnBlock<kVecsInFlight>(u, n, j, i, d, col);
    }
    for (; i + 4 <= n; i += 4) CholeskyColumnBlock<1>(u, n, j, i, d, col);
    for (; i < n; ++i) {
      double sum = col[i];
      for (size_t k = 0; k < j; ++k) sum -= u[k * n + i] * u[k * n + j];
      col[i] = sum / d;
    }
  }
  return true;
}

// hunterlint: hot
void ForwardSubstMultiAvx2(const double* lower, size_t n, double* b,
                           size_t m, double* sq_norms) {
  constexpr size_t kBlock = 4 * kVecsInFlight;
  size_t c = 0;
  for (; c + kBlock <= m; c += kBlock) {
    ForwardSubstBlock<kVecsInFlight>(lower, n, b, m, c, sq_norms);
  }
  for (; c + 4 <= m; c += 4) ForwardSubstBlock<1>(lower, n, b, m, c, sq_norms);
  for (; c < m; ++c) {
    double norm = 0.0;
    for (size_t j = 0; j < n; ++j) {
      const double* l_row = lower + j * n;
      double sum = b[j * m + c];
      for (size_t k = 0; k < j; ++k) sum -= l_row[k] * b[k * m + c];
      const double w = sum / l_row[j];
      b[j * m + c] = w;
      norm += w * w;
    }
    sq_norms[c] = norm;
  }
}

}  // namespace hunter::linalg::simd

#else  // !(__x86_64__ && __AVX2__)

namespace hunter::linalg::simd {

bool CholeskyUpperInPlaceAvx2(double* u, size_t n) {
  return CholeskyUpperInPlaceScalar(u, n);
}
void ForwardSubstMultiAvx2(const double* lower, size_t n, double* b,
                           size_t m, double* sq_norms) {
  ForwardSubstMultiScalar(lower, n, b, m, sq_norms);
}

}  // namespace hunter::linalg::simd

#endif
