#include "toolkit/cdf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>
#include <random>

#include "stats/metrics.hpp"

namespace dpnet::toolkit {
namespace {

constexpr double kExactEps = 1e7;

struct Env {
  std::shared_ptr<core::RootBudget> budget;
  std::shared_ptr<core::NoiseSource> noise;

  explicit Env(double total = 1e12, std::uint64_t seed = 3)
      : budget(std::make_shared<core::RootBudget>(total)),
        noise(std::make_shared<core::NoiseSource>(seed)) {}

  core::Queryable<std::int64_t> wrap(std::vector<std::int64_t> data) const {
    return {std::move(data), budget, noise};
  }
};

std::vector<std::int64_t> ramp_values(int n, std::int64_t max) {
  // Uniform-ish ramp over [0, max).
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i % max;
  return v;
}

TEST(MakeBoundaries, CoversTheRangeInclusive) {
  const auto b = make_boundaries(0, 100, 25);
  EXPECT_EQ(b, (std::vector<std::int64_t>{0, 25, 50, 75, 100}));
  EXPECT_THROW(make_boundaries(0, 10, 0), std::invalid_argument);
  EXPECT_THROW(make_boundaries(10, 0, 5), std::invalid_argument);
}

TEST(ExactCdf, CountsRecordsAtOrBelowEachBoundary) {
  const std::vector<std::int64_t> values = {1, 5, 5, 9, 20};
  const std::vector<std::int64_t> bounds = {4, 9, 50};
  const auto cdf = exact_cdf(values, bounds);
  EXPECT_EQ(cdf.values, (std::vector<double>{1.0, 4.0, 5.0}));
}

TEST(ExactCdf, RejectsUnsortedOrDuplicateBoundaries) {
  const std::vector<std::int64_t> values = {1};
  EXPECT_THROW(exact_cdf(values, std::vector<std::int64_t>{5, 4}),
               std::invalid_argument);
  EXPECT_THROW(exact_cdf(values, std::vector<std::int64_t>{4, 4}),
               std::invalid_argument);
  EXPECT_THROW(exact_cdf(values, std::vector<std::int64_t>{}),
               std::invalid_argument);
}

// One CDF estimator under test.  The printed parameter is the estimator's
// name, not its function-pointer address: ctest names parameterized cases
// by that printout, and an address moves with every build and every run.
struct CdfMethod {
  const char* name;
  CdfEstimate (*estimate)(const core::Queryable<std::int64_t>&,
                          std::span<const std::int64_t>, double);
};

void PrintTo(const CdfMethod& method, std::ostream* os) { *os << method.name; }

// All three estimators agree with the exact CDF when epsilon is enormous.
class CdfMethodAgreement : public ::testing::TestWithParam<CdfMethod> {};

TEST_P(CdfMethodAgreement, MatchesExactCdfAtHighEps) {
  Env env;
  const auto values = ramp_values(5000, 200);
  const auto bounds = make_boundaries(0, 199, 13);
  const auto exact = exact_cdf(values, bounds);
  const auto estimate =
      GetParam().estimate(env.wrap(values), bounds, kExactEps);
  ASSERT_EQ(estimate.values.size(), exact.values.size());
  for (std::size_t i = 0; i < exact.values.size(); ++i) {
    EXPECT_NEAR(estimate.values[i], exact.values[i], 0.5) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CdfMethodAgreement,
    ::testing::Values(
        CdfMethod{"cdf_prefix_counts",
                  +[](const core::Queryable<std::int64_t>& q,
                      std::span<const std::int64_t> b, double eps) {
                    return cdf_prefix_counts(q, b, eps);
                  }},
        CdfMethod{"cdf_partition",
                  +[](const core::Queryable<std::int64_t>& q,
                      std::span<const std::int64_t> b, double eps) {
                    return cdf_partition(q, b, eps);
                  }},
        CdfMethod{"cdf_recursive", &cdf_recursive}));

TEST(CdfPrefixCounts, TotalPrivacyCostIsEpsTotal) {
  Env env;
  auto q = env.wrap(ramp_values(100, 50));
  const auto bounds = make_boundaries(0, 49, 5);
  cdf_prefix_counts(q, bounds, 0.8);
  EXPECT_NEAR(env.budget->spent(), 0.8, 1e-9);
}

TEST(CdfPartition, TotalPrivacyCostIsEpsTotal) {
  Env env;
  auto q = env.wrap(ramp_values(100, 50));
  const auto bounds = make_boundaries(0, 49, 5);
  cdf_partition(q, bounds, 0.8);
  EXPECT_NEAR(env.budget->spent(), 0.8, 1e-9);
}

TEST(CdfRecursive, TotalPrivacyCostIsEpsTotal) {
  Env env;
  auto q = env.wrap(ramp_values(100, 50));
  const auto bounds = make_boundaries(0, 49, 5);
  cdf_recursive(q, bounds, 0.8);
  EXPECT_NEAR(env.budget->spent(), 0.8, 1e-9);
}

TEST(CdfErrorScaling, PartitionBeatsPrefixCountsAtEqualCost) {
  // The paper's Fig 1 headline: at the same total privacy cost, cdf1's
  // error dwarfs cdf2's and cdf3's.
  const auto values = ramp_values(20000, 250);
  const auto bounds = make_boundaries(0, 249, 1);  // 250 buckets
  const auto exact = exact_cdf(values, bounds);
  const double eps = 1.0;

  double err1 = 0.0, err2 = 0.0, err3 = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Env e1(1e12, seed + 10), e2(1e12, seed + 20), e3(1e12, seed + 30);
    err1 += stats::rmse(cdf_prefix_counts(e1.wrap(values), bounds, eps).values,
                        exact.values);
    err2 += stats::rmse(cdf_partition(e2.wrap(values), bounds, eps).values,
                        exact.values);
    err3 += stats::rmse(cdf_recursive(e3.wrap(values), bounds, eps).values,
                        exact.values);
  }
  EXPECT_GT(err1, 5.0 * err2);
  EXPECT_GT(err1, 5.0 * err3);
}

TEST(CdfPartition, ValuesBeyondLastBoundaryAreExcluded) {
  Env env;
  std::vector<std::int64_t> values = {1, 2, 3, 1000};
  const std::vector<std::int64_t> bounds = {5, 10};
  const auto est = cdf_partition(env.wrap(values), bounds, kExactEps);
  EXPECT_NEAR(est.values.back(), 3.0, 0.1);
}

TEST(CdfRecursive, HandlesNonPowerOfTwoBucketCounts) {
  Env env;
  const auto values = ramp_values(3000, 100);
  const auto bounds = make_boundaries(0, 99, 9);  // 12 boundaries
  const auto exact = exact_cdf(values, bounds);
  const auto est = cdf_recursive(env.wrap(values), bounds, kExactEps);
  for (std::size_t i = 0; i < exact.values.size(); ++i) {
    EXPECT_NEAR(est.values[i], exact.values[i], 0.5);
  }
}

TEST(CdfRecursive, SingleBoundaryDegeneratesToOneCount) {
  Env env;
  const std::vector<std::int64_t> bounds = {10};
  const auto est =
      cdf_recursive(env.wrap({1, 2, 3, 50}), bounds, kExactEps);
  ASSERT_EQ(est.values.size(), 1u);
  EXPECT_NEAR(est.values[0], 3.0, 0.1);
}

TEST(CdfEstimates, NoisyCdfNeedNotBeMonotoneButIsotonicFixIs) {
  Env env(1e12, 77);
  const auto values = ramp_values(500, 100);
  const auto bounds = make_boundaries(0, 99, 2);
  const auto est = cdf_partition(env.wrap(values), bounds, 0.5);
  const auto smoothed = isotonic_fit(est.values);
  for (std::size_t i = 1; i < smoothed.size(); ++i) {
    EXPECT_GE(smoothed[i], smoothed[i - 1] - 1e-9);
  }
}

}  // namespace
}  // namespace dpnet::toolkit
