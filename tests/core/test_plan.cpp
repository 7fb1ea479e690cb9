// Logical-plan IR: hash-chained node ids are a pure function of the root
// noise stream and derivation order (never of execution schedule), the DAG
// records operator structure, and partition tags stay readable for opaque
// key types.
#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/queryable.hpp"
#include "core/trace.hpp"

namespace {

// A partition key that is neither arithmetic nor string-convertible, so
// key_to_tag has no readable rendering for it.
struct OpaqueKey {
  int v = 0;
  bool operator==(const OpaqueKey&) const = default;
};

}  // namespace

template <>
struct std::hash<OpaqueKey> {
  std::size_t operator()(const OpaqueKey& k) const noexcept {
    return std::hash<int>{}(k.v);
  }
};

namespace dpnet::core {
namespace {

Queryable<int> protect(std::vector<int> data, std::uint64_t seed,
                       double budget = 100.0) {
  return Queryable<int>(std::move(data), std::make_shared<RootBudget>(budget),
                        std::make_shared<NoiseSource>(seed));
}

TEST(Plan, RootIdIsDeterministicPerSeed) {
  auto a = protect({1, 2, 3}, 42);
  auto b = protect({1, 2, 3}, 42);
  auto c = protect({1, 2, 3}, 43);
  EXPECT_EQ(a.plan_node().id(), b.plan_node().id());
  EXPECT_NE(a.plan_node().id(), c.plan_node().id());
}

TEST(Plan, DerivedIdsReplayAcrossIdenticalPipelines) {
  // Build the same pipeline twice from identically-seeded roots: every
  // node id must replay, because release noise is seeded from them.
  auto build = [] {
    auto q = protect({1, 2, 3, 4, 5, 6}, 7);
    auto filtered = q.where([](int x) { return x > 1; });
    auto mapped = filtered.select([](int x) { return x * 2; });
    return std::vector<std::uint64_t>{q.plan_node().id(),
                                      filtered.plan_node().id(),
                                      mapped.plan_node().id()};
  };
  EXPECT_EQ(build(), build());
}

TEST(Plan, SiblingDerivationsGetDistinctIds) {
  auto q = protect({1, 2, 3}, 7);
  auto first = q.where([](int x) { return x > 0; });
  auto second = q.where([](int x) { return x > 0; });
  EXPECT_NE(first.plan_node().id(), second.plan_node().id());
  EXPECT_NE(first.plan_node().id(), q.plan_node().id());
}

TEST(Plan, DagRecordsOperatorAndInputs) {
  auto q = protect({1, 2, 3}, 7);
  auto filtered = q.where([](int x) { return x > 1; });
  EXPECT_EQ(q.plan_node().op(), "source");
  EXPECT_EQ(filtered.plan_node().op(), "where");
  const auto inputs = filtered.plan_node().inputs();
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0]->id(), q.plan_node().id());
}

TEST(Plan, BinaryOperatorsRecordBothInputs) {
  auto left = protect({1, 2}, 7);
  auto right = protect({3, 4}, 8);
  auto merged = left.concat(right);
  const auto inputs = merged.plan_node().inputs();
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0]->id(), left.plan_node().id());
  EXPECT_EQ(inputs[1]->id(), right.plan_node().id());
}

TEST(Plan, DescribeRendersTheDagWithMaterializationMarks) {
  auto q = protect({1, 2, 3}, 7);
  auto filtered = q.where([](int x) { return x > 1; });
  const std::string before = filtered.plan_node().describe();
  EXPECT_NE(before.find("where"), std::string::npos);
  EXPECT_NE(before.find("source"), std::string::npos);

  std::ignore = filtered.noisy_count(1.0);
  const std::string after = filtered.plan_node().describe();
  EXPECT_NE(after.find('*'), std::string::npos);  // now evaluated
  EXPECT_TRUE(filtered.plan_node().materialized());
  // ...fused into the count: the where kept no rows of its own.
  EXPECT_FALSE(filtered.plan_node().holds_rows());
}

TEST(Plan, MaterializationIsDemandDriven) {
  auto q = protect({1, 2, 3}, 7);
  auto filtered = q.where([](int x) { return x > 1; });
  EXPECT_TRUE(q.plan_node().materialized());  // sources hold their rows
  EXPECT_FALSE(filtered.plan_node().materialized());
  std::ignore = filtered.noisy_count(1.0);
  EXPECT_TRUE(filtered.plan_node().materialized());  // evaluated...
  EXPECT_FALSE(filtered.plan_node().holds_rows());   // ...storing nothing
}

TEST(Plan, OpaquePartitionKeysGetIndexedTraceTags) {
  // Keys with no string/number rendering used to collapse to one "?" tag;
  // the index suffix keeps sibling branches distinguishable in traces.
  auto q = protect({0, 1, 2, 3}, 7);
  QueryTrace trace;
  {
    TraceSession session(trace);
    const std::vector<OpaqueKey> keys = {{0}, {1}};
    auto parts = q.partition(
        keys, [](int x) { return OpaqueKey{x % 2}; });
    std::ignore = parts.at(OpaqueKey{0}).noisy_count(0.5);
    std::ignore = parts.at(OpaqueKey{1}).noisy_count(0.5);
  }
  ASSERT_EQ(trace.roots().size(), 3u);
  EXPECT_EQ(trace.roots()[1].detail, "partition[?0]");
  EXPECT_EQ(trace.roots()[2].detail, "partition[?1]");
}

TEST(Plan, ReleaseSeedsDifferPerNodeAndPerRelease) {
  auto q = protect({1, 2, 3}, 7);
  auto a = q.where([](int x) { return x > 0; });
  auto b = q.where([](int x) { return x > 0; });
  const std::uint64_t stream = 99;
  const auto a0 = a.plan_node().next_release_seed(stream);
  const auto a1 = a.plan_node().next_release_seed(stream);
  const auto b0 = b.plan_node().next_release_seed(stream);
  EXPECT_NE(a0, a1);  // repeated releases on one node
  EXPECT_NE(a0, b0);  // sibling nodes
}

}  // namespace
}  // namespace dpnet::core
