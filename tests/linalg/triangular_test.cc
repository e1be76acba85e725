// linalg::Cholesky against the frozen row-order factorization
// (tests/linalg/triangular_ref.h), compared by bit pattern. The column-lane
// kernel only regroups independent elements into vector lanes, so every
// entry of the factor — and, on a non-SPD input, the column it stops at —
// must be the reference's. The force_scalar duplicate of this suite checks
// the scalar tier the same way.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "tests/linalg/triangular_ref.h"

namespace hunter::linalg {
namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// A random SPD matrix shaped like a GP kernel: B Bᵀ / d plus a small ridge,
// so the factor's entries span several magnitudes.
Matrix RandomSpd(size_t n, common::Rng* rng) {
  const size_t d = n + 3;
  Matrix b(n, d);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) b.At(r, c) = rng->Uniform(-1.0, 1.0);
  }
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (size_t c = 0; c < d; ++c) sum += b.At(i, c) * b.At(j, c);
      a.At(i, j) = sum / static_cast<double>(d);
    }
    a.At(i, i) += 1e-3;
  }
  return a;
}

void ExpectFactorBitsEqual(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      EXPECT_EQ(Bits(got.At(i, j)), Bits(want.At(i, j)))
          << "n=" << want.rows() << " (" << i << ", " << j << ")";
    }
  }
}

std::vector<size_t> FactorSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 13; ++n) sizes.push_back(n);
  sizes.push_back(120);
  return sizes;
}

TEST(TriangularTest, CholeskyMatchesRowOrderBitForBit) {
  common::Rng rng(0x7121);
  for (const size_t n : FactorSizes()) {
    const Matrix a = RandomSpd(n, &rng);
    Matrix want;
    ASSERT_TRUE(triref::RowOrderCholesky(a, &want)) << n;
    Matrix got;
    ASSERT_TRUE(Cholesky(a, &got)) << n;
    ExpectFactorBitsEqual(got, want);
  }
}

TEST(TriangularTest, CholeskyInPlaceAndReusedStorageMatch) {
  common::Rng rng(0x7122);
  Matrix reused(7, 3);  // a stale shape and contents to overwrite
  reused.Fill(-5.0);
  for (const size_t n : FactorSizes()) {
    const Matrix a = RandomSpd(n, &rng);
    Matrix want;
    ASSERT_TRUE(triref::RowOrderCholesky(a, &want));
    ASSERT_TRUE(Cholesky(a, &reused)) << n;
    ExpectFactorBitsEqual(reused, want);
    Matrix in_place = a;
    ASSERT_TRUE(Cholesky(in_place, &in_place)) << n;
    ExpectFactorBitsEqual(in_place, want);
  }
}

TEST(TriangularTest, CholeskyReadsOnlyTheLowerTriangle) {
  common::Rng rng(0x7123);
  const Matrix a = RandomSpd(9, &rng);
  Matrix skewed = a;
  for (size_t i = 0; i < 9; ++i) {
    for (size_t j = i + 1; j < 9; ++j) skewed.At(i, j) = 1e6;
  }
  Matrix want;
  ASSERT_TRUE(triref::RowOrderCholesky(a, &want));
  Matrix got;
  ASSERT_TRUE(Cholesky(skewed, &got));
  ExpectFactorBitsEqual(got, want);
}

TEST(TriangularTest, NonSpdFailsAtTheReferenceColumn) {
  common::Rng rng(0x7124);
  for (const size_t n : FactorSizes()) {
    for (const size_t bad : {size_t{0}, n / 2, n - 1}) {
      // Zeroing row and column `bad` except a negative diagonal keeps the
      // leading block SPD and makes column `bad` the first failure.
      Matrix a = RandomSpd(n, &rng);
      for (size_t k = 0; k < n; ++k) {
        a.At(bad, k) = 0.0;
        a.At(k, bad) = 0.0;
      }
      a.At(bad, bad) = -1.0;
      Matrix want;
      size_t want_column = n;
      ASSERT_FALSE(triref::RowOrderCholesky(a, &want, &want_column));
      ASSERT_EQ(want_column, bad);
      Matrix got;
      ASSERT_FALSE(Cholesky(a, &got)) << "n=" << n << " bad=" << bad;
      // Both orders have filled the factor's leading block — rows <= bad,
      // columns < bad — when they stop; a failure one column later or
      // earlier would leave it different.
      for (size_t i = 0; i <= bad; ++i) {
        for (size_t j = 0; j < bad && j <= i; ++j) {
          EXPECT_EQ(Bits(got.At(i, j)), Bits(want.At(i, j)))
              << "n=" << n << " (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(TriangularTest, NanDiagonalPropagatesLikeTheReference) {
  // NaN fails `sum <= 0`, so neither order rejects it: the NaN spreads
  // through the same entries.
  common::Rng rng(0x7125);
  Matrix a = RandomSpd(6, &rng);
  a.At(3, 3) = std::nan("");
  Matrix want;
  const bool want_ok = triref::RowOrderCholesky(a, &want);
  Matrix got;
  ASSERT_EQ(Cholesky(a, &got), want_ok);
  ExpectFactorBitsEqual(got, want);
}

}  // namespace
}  // namespace hunter::linalg
