// Property tests: algebraic laws of the query operators over randomized
// data.  These pin down semantics the unit tests only spot-check.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>

#include "core/queryable.hpp"

namespace dpnet::core {
namespace {

struct Env {
  std::shared_ptr<RootBudget> budget;
  std::shared_ptr<NoiseSource> noise;

  explicit Env(std::uint64_t seed)
      : budget(std::make_shared<RootBudget>(1e12)),
        noise(std::make_shared<NoiseSource>(seed)) {}

  template <typename T>
  Queryable<T> wrap(std::vector<T> data) const {
    return Queryable<T>(std::move(data), budget, noise);
  }
};

std::vector<int> random_data(std::uint64_t seed, int n, int range) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(0, range - 1);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (auto& x : out) x = dist(rng);
  return out;
}

class QueryableLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryableLaws, WhereFusion) {
  Env env(GetParam());
  const auto data = random_data(GetParam(), 500, 100);
  auto chained = env.wrap(data)
                     .where([](int x) { return x % 2 == 0; })
                     .where([](int x) { return x > 10; });
  auto fused = env.wrap(data).where(
      [](int x) { return x % 2 == 0 && x > 10; });
  EXPECT_EQ(chained.data_unsafe(), fused.data_unsafe());
  EXPECT_DOUBLE_EQ(chained.total_stability(), fused.total_stability());
}

TEST_P(QueryableLaws, SelectComposition) {
  Env env(GetParam());
  const auto data = random_data(GetParam() + 1, 500, 100);
  auto chained = env.wrap(data)
                     .select([](int x) { return x + 3; })
                     .select([](int x) { return x * 2; });
  auto composed =
      env.wrap(data).select([](int x) { return (x + 3) * 2; });
  EXPECT_EQ(chained.data_unsafe(), composed.data_unsafe());
}

TEST_P(QueryableLaws, DistinctIsIdempotent) {
  Env env(GetParam());
  const auto data = random_data(GetParam() + 2, 500, 20);
  auto once = env.wrap(data).distinct();
  auto twice = once.distinct();
  EXPECT_EQ(once.data_unsafe(), twice.data_unsafe());
}

TEST_P(QueryableLaws, GroupByPartitionsTheRecords) {
  Env env(GetParam());
  const auto data = random_data(GetParam() + 3, 500, 13);
  auto grouped = env.wrap(data).group_by([](int x) { return x % 7; });
  std::size_t total = 0;
  std::set<int> keys;
  for (const auto& g : grouped.data_unsafe()) {
    total += g.items.size();
    EXPECT_TRUE(keys.insert(g.key).second) << "duplicate group key";
    for (int x : g.items) EXPECT_EQ(x % 7, g.key);
  }
  EXPECT_EQ(total, data.size());
}

TEST_P(QueryableLaws, PartitionCoversFilteredRecordsExactly) {
  Env env(GetParam());
  const auto data = random_data(GetParam() + 4, 500, 10);
  std::vector<int> keys = {0, 1, 2, 3};  // values 4..9 dropped
  auto parts = env.wrap(data).partition(keys, [](int x) { return x; });
  std::size_t in_parts = 0;
  for (int k : keys) in_parts += parts.at(k).size_unsafe();
  const auto expected = static_cast<std::size_t>(
      std::count_if(data.begin(), data.end(), [](int x) { return x < 4; }));
  EXPECT_EQ(in_parts, expected);
}

TEST_P(QueryableLaws, ConcatLengthIsSumOfInputs) {
  Env env(GetParam());
  const auto a = random_data(GetParam() + 5, 200, 50);
  const auto b = random_data(GetParam() + 6, 300, 50);
  auto joined = env.wrap(a).concat(env.wrap(b));
  EXPECT_EQ(joined.size_unsafe(), a.size() + b.size());
}

TEST_P(QueryableLaws, SetAlgebraIdentities) {
  Env env(GetParam());
  const auto a = random_data(GetParam() + 7, 300, 30);
  const auto b = random_data(GetParam() + 8, 300, 30);
  auto qa = env.wrap(a);
  auto qb = env.wrap(b);

  // |A union B| = |A distinct| + |B except A|.
  const auto union_size = qa.set_union(qb).size_unsafe();
  const auto a_distinct = qa.distinct().size_unsafe();
  const auto b_minus_a = qb.except(qa).size_unsafe();
  EXPECT_EQ(union_size, a_distinct + b_minus_a);

  // |A intersect B| + |A except B| = |A distinct|.
  EXPECT_EQ(qa.intersect(qb).size_unsafe() + qa.except(qb).size_unsafe(),
            a_distinct);
}

TEST_P(QueryableLaws, JoinOutputBoundedByEitherInput) {
  Env env(GetParam());
  const auto a = random_data(GetParam() + 9, 300, 40);
  const auto b = random_data(GetParam() + 10, 250, 40);
  auto joined = env.wrap(a).join(
      env.wrap(b), [](int x) { return x; }, [](int y) { return y; },
      [](int x, int) { return x; });
  EXPECT_LE(joined.size_unsafe(), std::min(a.size(), b.size()));
  // Every output value exists in both inputs.
  std::set<int> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  for (int v : joined.data_unsafe()) {
    EXPECT_TRUE(sa.count(v) && sb.count(v));
  }
}

TEST_P(QueryableLaws, SelectManyLengthBoundedByFanout) {
  Env env(GetParam());
  const auto data = random_data(GetParam() + 11, 200, 6);
  const std::size_t fanout = 3;
  auto expanded = env.wrap(data).select_many(
      [](int x) { return std::vector<int>(static_cast<std::size_t>(x), x); },
      fanout);
  EXPECT_LE(expanded.size_unsafe(), data.size() * fanout);
  std::size_t expected = 0;
  for (int x : data) expected += std::min<std::size_t>(
      static_cast<std::size_t>(x), fanout);
  EXPECT_EQ(expanded.size_unsafe(), expected);
}

TEST_P(QueryableLaws, AggregationChargesStabilityTimesEps) {
  Env env(GetParam());
  std::mt19937_64 rng(GetParam() + 12);
  const auto data = random_data(GetParam() + 13, 100, 10);
  auto q = env.wrap(data);
  // Random chain of stability-affecting operations.
  double expected_stability = 1.0;
  auto current = q.select([](int x) { return x; });
  for (int step = 0; step < 4; ++step) {
    if (rng() % 2 == 0) {
      current = current.group_by([](int x) { return x % 3; })
                    .select_many(
                        [](const Group<int, int>& g) {
                          return std::vector<int>(g.items.begin(),
                                                  g.items.end());
                        },
                        2);
      expected_stability *= 4.0;  // 2 (group) * 2 (fanout)
    } else {
      current = current.where([](int) { return true; });
    }
  }
  const double before = env.budget->spent();
  std::ignore = current.noisy_count(0.01);
  EXPECT_NEAR(env.budget->spent() - before, expected_stability * 0.01,
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryableLaws,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace dpnet::core
