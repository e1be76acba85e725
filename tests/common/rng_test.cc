#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace hunter::common {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextU64() != b.NextU64()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(29);
  const ZipfTable zipf(1000, 0.8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(&rng), 1000u);
  }
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(31);
  const ZipfTable zipf(10000, 0.9);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 100) ++low;  // top 1% of keys
  }
  // With theta=0.9 the head should absorb far more than the uniform 1%.
  EXPECT_GT(static_cast<double>(low) / n, 0.2);
}

TEST(RngTest, ZipfThetaZeroIsUniformish) {
  Rng rng(37);
  const ZipfTable zipf(1000, 0.0);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 100) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.1, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(41);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalAllZeroWeightsIsUniform) {
  Rng rng(43);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical(weights)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(47);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(53);
  Rng child = parent.Fork();
  // Forking perturbs the parent; child stream differs from parent stream.
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

// ---------------------------------------------------------------------------
// Zipf fast-path equivalence. SeedFormulaZipf below is the pre-fast-path
// per-Rng Zipf draw verbatim (per-Rng constants cache, per-draw
// std::pow(0.5, theta) in the rank mapping); ZipfTable must reproduce its
// stream bit for bit — same draws consumed, same ranks returned — across
// every (n, theta) rebinding and the degenerate paths.
// ---------------------------------------------------------------------------

struct SeedFormulaZipfState {
  uint64_t n = 0;
  double theta = -1.0;
  double zetan = 0.0;
  double alpha = 0.0;
  double eta = 0.0;
};

uint64_t SeedFormulaZipf(SeedFormulaZipfState* s, Rng* rng, uint64_t n,
                         double theta) {
  if (n <= 1 || theta <= 0.0) return n == 0 ? 0 : rng->NextU64() % n;
  if (n != s->n || theta != s->theta) {
    s->n = n;
    s->theta = theta;
    constexpr uint64_t kExactTerms = 16384;
    double zetan = 0.0;
    const uint64_t exact = std::min(n, kExactTerms);
    for (uint64_t i = 1; i <= exact; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    if (n > exact && theta != 1.0) {
      const double a = static_cast<double>(exact);
      const double b = static_cast<double>(n);
      zetan += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
               (1.0 - theta);
    }
    s->zetan = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    s->alpha = 1.0 / (1.0 - theta);
    s->eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
             (1.0 - zeta2 / zetan);
  }
  const double u = rng->Uniform();
  const double uz = u * s->zetan;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, s->theta)) return 1;
  const double rank = static_cast<double>(s->n) *
                      std::pow(s->eta * u - s->eta + 1.0, s->alpha);
  uint64_t result = static_cast<uint64_t>(rank);
  return result >= s->n ? s->n - 1 : result;
}

TEST(RngTest, ZipfBitIdenticalToSeedFormulaAcrossCacheTransitions) {
  // One table rebound through alternating (n, theta) pairs recomputes its
  // constants on nearly every draw block, exercising small exact-sum n,
  // large integral-tail n and the degenerate paths (n <= 1, theta <= 0).
  const struct {
    uint64_t n;
    double theta;
  } params[] = {
      {4096, 0.9},    {1u << 24, 0.8}, {4096, 0.9}, {100, 0.99},
      {1, 0.9},       {64, 0.0},       {0, 0.5},    {1u << 24, 0.8},
      {16384, 1.2},   {16385, 0.7},
  };
  Rng seed_rng(2024);
  Rng fast_rng(2024);
  SeedFormulaZipfState state;
  ZipfTable table;
  for (int round = 0; round < 32; ++round) {
    for (const auto& p : params) {
      table.Rebind(p.n, p.theta);
      for (int i = 0; i < 8; ++i) {
        const uint64_t want = SeedFormulaZipf(&state, &seed_rng, p.n, p.theta);
        const uint64_t got = table.Sample(&fast_rng);
        ASSERT_EQ(want, got)
            << "n=" << p.n << " theta=" << p.theta << " round " << round;
      }
    }
  }
  // Same draw count and order on both sides.
  EXPECT_EQ(seed_rng.NextU64(), fast_rng.NextU64());
}

TEST(RngTest, ZipfTableSampleMatchesRngZipfDrawForDraw) {
  // A table bound once per (n, theta) draws exactly what the per-Rng seed
  // formula draws at the same stream position.
  Rng direct_rng(7);
  Rng table_rng(7);
  SeedFormulaZipfState state;
  for (const double theta : {0.0, 0.6, 0.99}) {
    for (const uint64_t n : {uint64_t{1}, uint64_t{512}, uint64_t{1} << 20}) {
      ZipfTable table(n, theta);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(SeedFormulaZipf(&state, &direct_rng, n, theta),
                  table.Sample(&table_rng))
            << "n=" << n << " theta=" << theta;
      }
    }
  }
  EXPECT_EQ(direct_rng.NextU64(), table_rng.NextU64());
}

TEST(RngTest, ZipfTableFillMatchesSequentialSample) {
  ZipfTable table(8192, 0.85);
  Rng fill_rng(9);
  Rng sample_rng(9);
  std::vector<uint64_t> filled(1000);
  table.Fill(&fill_rng, filled.data(), filled.size());
  for (size_t i = 0; i < filled.size(); ++i) {
    ASSERT_EQ(filled[i], table.Sample(&sample_rng)) << "draw " << i;
  }
}

TEST(RngTest, ZipfTableRebindIsNoOpOnSameParameters) {
  ZipfTable table(4096, 0.9);
  Rng a(31);
  Rng b(31);
  const uint64_t before = table.Sample(&a);
  table.Rebind(4096, 0.9);  // must not perturb the mapping
  EXPECT_EQ(before, table.Sample(&b));
}

}  // namespace
}  // namespace hunter::common
