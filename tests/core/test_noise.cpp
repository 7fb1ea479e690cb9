#include "core/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace dpnet::core {
namespace {

TEST(NoiseSource, UniformStaysInUnitInterval) {
  NoiseSource noise(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = noise.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(NoiseSource, UniformRangeRespectsBounds) {
  NoiseSource noise(2);
  for (int i = 0; i < 10000; ++i) {
    const double u = noise.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(NoiseSource, SameSeedSameStream) {
  NoiseSource a(42);
  NoiseSource b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

TEST(NoiseSource, DifferentSeedsDiverge) {
  NoiseSource a(1);
  NoiseSource b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(NoiseSource, LaplaceRejectsNonPositiveScale) {
  NoiseSource noise(1);
  EXPECT_THROW(noise.laplace(0.0), std::invalid_argument);
  EXPECT_THROW(noise.laplace(-1.0), std::invalid_argument);
}

class LaplaceMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceMomentsTest, MeanZeroAndStddevMatchesTheory) {
  const double scale = GetParam();
  NoiseSource noise(7);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = noise.laplace(scale);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double stddev = std::sqrt(sum_sq / n - mean * mean);
  const double expected = std::sqrt(2.0) * scale;
  EXPECT_NEAR(mean, 0.0, 0.05 * expected);
  EXPECT_NEAR(stddev, expected, 0.05 * expected);
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplaceMomentsTest,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0));

class GeometricMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(GeometricMomentsTest, MatchesDiscreteLaplaceDistribution) {
  const double eps = GetParam();
  const double alpha = std::exp(-eps);
  NoiseSource noise(11);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  int zeros = 0;
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<double>(noise.two_sided_geometric(eps));
    sum += k;
    sum_sq += k * k;
    if (k == 0.0) ++zeros;
  }
  const double mean = sum / n;
  // Var of two-sided geometric: 2 alpha / (1 - alpha)^2.
  const double expected_var = 2.0 * alpha / ((1 - alpha) * (1 - alpha));
  const double expected_p0 = (1 - alpha) / (1 + alpha);
  EXPECT_NEAR(mean, 0.0, 0.05 * std::sqrt(expected_var) + 0.01);
  EXPECT_NEAR(sum_sq / n - mean * mean, expected_var, 0.08 * expected_var);
  EXPECT_NEAR(static_cast<double>(zeros) / n, expected_p0,
              0.05 * expected_p0 + 0.005);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, GeometricMomentsTest,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0));

TEST(NoiseSource, GeometricRejectsNonPositiveEpsilon) {
  NoiseSource noise(1);
  EXPECT_THROW(noise.two_sided_geometric(0.0), std::invalid_argument);
  EXPECT_THROW(noise.two_sided_geometric(-2.0), std::invalid_argument);
}

TEST(NoiseSource, GumbelHasExpectedMean) {
  NoiseSource noise(3);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += noise.gumbel();
  // Mean of the standard Gumbel is the Euler-Mascheroni constant.
  EXPECT_NEAR(sum / n, 0.5772, 0.02);
}

TEST(NoiseSource, GaussianMatchesMoments) {
  NoiseSource noise(5);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = noise.gaussian(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 2.0, 0.05);
}

TEST(NoiseSource, NextIndexStaysInRangeAndRejectsZero) {
  NoiseSource noise(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(noise.next_index(17), 17u);
  }
  EXPECT_THROW(noise.next_index(0), std::invalid_argument);
}

// The stream is std::mt19937_64's, bit for bit, although the first 156
// outputs are computed from the seed without building the engine.

/// Seeds spread over the whole 64-bit range (plus the small ones).
std::uint64_t test_seed(std::uint64_t i) {
  return i < 64 ? i : i * 0x9E3779B97F4A7C15ULL;
}

TEST(NoiseSource, FirstDrawsAreBitIdenticalToMt19937_64) {
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const std::uint64_t seed = test_seed(i);
    NoiseSource noise(seed);
    std::mt19937_64 reference(seed);
    for (int d = 0; d < 8; ++d) {
      ASSERT_EQ(noise.stream_base(), reference())
          << "seed " << seed << " draw " << d;
    }
  }
}

TEST(NoiseSource, LongStreamsContinueTheEngineExactly) {
  // Past the 156 direct draws the engine takes over mid-stream.
  for (std::uint64_t i = 0; i < 20; ++i) {
    NoiseSource noise(test_seed(i * 977));
    std::mt19937_64 reference(test_seed(i * 977));
    for (int d = 0; d < 700; ++d) {
      ASSERT_EQ(noise.stream_base(), reference()) << "draw " << d;
    }
  }
}

TEST(NoiseSource, MixedStreamsMatchTheEngine) {
  // Raw draws interleaved with engine(), gaussian() and next_index(),
  // switching after every possible number of direct draws.
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    const std::uint64_t seed = test_seed(i);
    NoiseSource noise(seed);
    std::mt19937_64 reference(seed);
    const std::uint64_t direct = i % 10;
    for (std::uint64_t d = 0; d < direct; ++d) {
      ASSERT_EQ(noise.stream_base(), reference());
    }
    switch (i % 3) {
      case 0:
        ASSERT_EQ(noise.engine()(), reference());
        break;
      case 1: {
        std::normal_distribution<double> dist(3.0, 2.0);
        ASSERT_EQ(noise.gaussian(3.0, 2.0), dist(reference));
        break;
      }
      default: {
        std::uniform_int_distribution<std::uint64_t> dist(0, 996);
        ASSERT_EQ(noise.next_index(997), dist(reference));
        break;
      }
    }
    for (int d = 0; d < 4; ++d) ASSERT_EQ(noise.stream_base(), reference());
    ASSERT_EQ(noise.uniform(), (reference() >> 11) * 0x1.0p-53);
  }
}

}  // namespace
}  // namespace dpnet::core
