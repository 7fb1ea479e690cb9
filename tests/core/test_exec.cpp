// Parallel executor: noisy releases must be byte-identical to the
// sequential schedule at any thread count (node-id-seeded noise forks),
// worker traces must merge back into the sequential tree shape, and
// budget accounting must stay exact under contention.
#include "core/exec/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/audit.hpp"
#include "core/metrics.hpp"
#include "core/queryable.hpp"
#include "core/trace.hpp"

namespace dpnet::core {
namespace {

constexpr int kParts = 24;

std::vector<int> many_values() {
  std::vector<int> v(600);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

std::vector<int> part_keys() {
  std::vector<int> keys(kParts);
  std::iota(keys.begin(), keys.end(), 0);
  return keys;
}

/// The partition-heavy pipeline under test: one filtered count and one
/// sum per part, all independent branches.
std::vector<double> run_pipeline(const Queryable<int>& data,
                                 exec::ExecPolicy policy) {
  const auto keys = part_keys();
  auto parts = data.partition(keys, [](int x) { return x % kParts; });
  return exec::map_parts(
      policy, keys, parts, [](int, const Queryable<int>& part) {
        const double count =
            part.where([](int x) { return x % 5 != 0; }).noisy_count(0.25);
        const double sum = part.noisy_sum_scaled(
            0.25, [](int x) { return static_cast<double>(x % 10); }, 10.0);
        return count + sum;
      });
}

Queryable<int> protect(std::shared_ptr<PrivacyBudget> budget,
                       std::uint64_t seed) {
  return Queryable<int>(many_values(), std::move(budget),
                        std::make_shared<NoiseSource>(seed));
}

TEST(Exec, NoisyAggregatesAreByteIdenticalAcrossThreadCounts) {
  const auto sequential =
      run_pipeline(protect(std::make_shared<RootBudget>(1e6), 11),
                   exec::ExecPolicy{1});
  ASSERT_EQ(sequential.size(), static_cast<std::size_t>(kParts));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel =
        run_pipeline(protect(std::make_shared<RootBudget>(1e6), 11),
                     exec::ExecPolicy{threads});
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      // Bitwise equality, not tolerance: the noise must be the same draw.
      EXPECT_EQ(parallel[i], sequential[i])
          << "part " << i << " diverged at threads=" << threads;
    }
  }
}

TEST(Exec, DistinctSeedsStillProduceDistinctNoise) {
  const auto a = run_pipeline(protect(std::make_shared<RootBudget>(1e6), 11),
                              exec::ExecPolicy{4});
  const auto b = run_pipeline(protect(std::make_shared<RootBudget>(1e6), 12),
                              exec::ExecPolicy{4});
  EXPECT_NE(a, b);
}

void expect_same_shape(const TraceSpan& a, const TraceSpan& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_DOUBLE_EQ(a.stability, b.stability);
  EXPECT_EQ(a.input_rows, b.input_rows);
  EXPECT_EQ(a.output_rows, b.output_rows);
  EXPECT_DOUBLE_EQ(a.eps_requested, b.eps_requested);
  EXPECT_DOUBLE_EQ(a.eps_charged, b.eps_charged);
  ASSERT_EQ(a.children.size(), b.children.size()) << "under op " << a.op;
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    expect_same_shape(a.children[i], b.children[i]);
  }
}

TEST(Exec, WorkerTracesMergeIntoTheSequentialTreeShape) {
  auto traced_run = [](std::size_t threads) {
    QueryTrace trace;
    {
      TraceSession session(trace);
      std::ignore =
          run_pipeline(protect(std::make_shared<RootBudget>(1e6), 11),
                       exec::ExecPolicy{threads});
    }
    return trace;
  };
  const QueryTrace sequential = traced_run(1);
  const QueryTrace parallel = traced_run(8);
  ASSERT_FALSE(sequential.empty());
  ASSERT_EQ(parallel.roots().size(), sequential.roots().size());
  for (std::size_t i = 0; i < sequential.roots().size(); ++i) {
    expect_same_shape(parallel.roots()[i], sequential.roots()[i]);
  }
  EXPECT_DOUBLE_EQ(parallel.total_eps_charged(),
                   sequential.total_eps_charged());
}

TEST(Exec, CanonicalLedgerOrderIsScheduleIndependent) {
  auto audited_run = [](std::size_t threads) {
    auto audit = std::make_shared<AuditingBudget>(
        std::make_shared<RootBudget>(1e6));
    std::ignore = run_pipeline(protect(audit, 11), exec::ExecPolicy{threads});
    return audit->canonical_entries();
  };
  const auto sequential = audited_run(1);
  const auto parallel = audited_run(8);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(parallel[i].node_id, sequential[i].node_id);
    EXPECT_DOUBLE_EQ(parallel[i].eps, sequential[i].eps);
  }
}

TEST(Exec, PartitionChargesAreStampedWithThePartitionedNode) {
  // Which part raises the max-cost first depends on the schedule, so the
  // parent charge belongs to the node the partition was taken of.
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1e6));
  const auto data = protect(audit, 11);
  std::ignore = run_pipeline(data, exec::ExecPolicy{8});
  ASSERT_FALSE(audit->entries().empty());
  for (const auto& entry : audit->entries()) {
    EXPECT_EQ(entry.node_id, data.plan_node().id());
  }
}

TEST(Exec, ParallelReleasesNeverOverspendAndRefusalsCountOnce) {
  // 40 releases race for a budget that admits exactly 10; the rest must
  // refuse, each counted exactly once, with the budget never overdrawn.
  auto budget = std::make_shared<RootBudget>(1.0);
  auto q = protect(budget, 21);
  const std::uint64_t refused_before =
      builtin_metrics::refused_charges().value();
  std::atomic<int> ok{0};
  std::atomic<int> refused{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back([&q, &ok, &refused] {
      try {
        std::ignore = q.noisy_count(0.1);
        ok.fetch_add(1);
      } catch (const BudgetExhaustedError&) {
        refused.fetch_add(1);
      }
    });
  }
  exec::Executor(exec::ExecPolicy{8}).run(std::move(tasks));
  EXPECT_EQ(ok.load(), 10);
  EXPECT_EQ(refused.load(), 30);
  EXPECT_NEAR(budget->spent(), 1.0, 1e-9);
  EXPECT_EQ(builtin_metrics::refused_charges().value() - refused_before,
            static_cast<std::uint64_t>(refused.load()));
}

TEST(Exec, MapPartsReturnsResultsInKeyOrder) {
  auto q = protect(std::make_shared<RootBudget>(1e9), 31);
  const auto keys = part_keys();
  auto parts = q.partition(keys, [](int x) { return x % kParts; });
  // At huge epsilon the counts are essentially exact: every part of the
  // 600-row iota holds 25 rows, but the sums identify the key.
  const auto sums = exec::map_parts(
      exec::ExecPolicy{8}, keys, parts, [](int, const Queryable<int>& part) {
        return part.noisy_sum_scaled(
            1e7, [](int x) { return static_cast<double>(x % kParts); },
            static_cast<double>(kParts));
      });
  ASSERT_EQ(sums.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_NEAR(sums[i], 25.0 * static_cast<double>(keys[i]), 0.5);
  }
}

TEST(Exec, WorkerExceptionsPropagateToTheCaller) {
  std::vector<std::function<void()>> tasks;
  std::atomic<int> completed{0};
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &completed] {
      if (i == 3) throw std::runtime_error("task 3 boom");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(exec::Executor(exec::ExecPolicy{4}).run(std::move(tasks)),
               std::runtime_error);
}

TEST(Exec, SingleThreadPolicyRunsInline) {
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([i, &order] { order.push_back(i); });
  }
  exec::Executor(exec::ExecPolicy{1}).run(std::move(tasks));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace dpnet::core
