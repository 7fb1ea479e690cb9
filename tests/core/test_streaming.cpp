// A streaming histogram is noisy_counts() over a streamed source: the
// records are pulled from a generator on every demand and never stored,
// and all cells are released together at one epsilon (the cells split
// the records, so Partition's max-cost rule makes them one charge).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/audit.hpp"
#include "core/exec/executor.hpp"
#include "core/failpoint.hpp"
#include "core/guard.hpp"
#include "core/queryable.hpp"
#include "tracegen/isp_traffic.hpp"

namespace dpnet::core {
namespace {

const auto kIdentity = [](int x) { return x; };

/// A streamed source pushing record i = f(i) for i < n on every demand;
/// `pushed` counts every record it has pushed over all demands.
template <typename F>
Queryable<int> streamed_records(int n, F f,
                                std::shared_ptr<PrivacyBudget> budget,
                                std::uint64_t seed,
                                std::shared_ptr<int> pushed = nullptr) {
  return Queryable<int>::streamed(
      [n, f, pushed](plan::SourceSink<int>& sink) {
        for (int i = 0; i < n; ++i) {
          if (pushed) ++*pushed;
          sink(f(i));
        }
      },
      std::move(budget), std::make_shared<NoiseSource>(seed));
}

TEST(StreamingHistogram, CountsFedRecordsPerCell) {
  auto pushed = std::make_shared<int>(0);
  const auto q = streamed_records(
      90, [](int i) { return i % 3; }, std::make_shared<RootBudget>(1e12),
      33, pushed);
  const auto released = q.noisy_counts(std::vector<int>{0, 1, 2}, kIdentity,
                                       1e7);
  ASSERT_EQ(released.size(), 3u);
  EXPECT_NEAR(released[0], 30.0, 0.01);
  EXPECT_NEAR(released[1], 30.0, 0.01);
  EXPECT_NEAR(released[2], 30.0, 0.01);
  EXPECT_EQ(*pushed, 90);
  EXPECT_FALSE(q.plan_node().holds_rows());
}

TEST(StreamingHistogram, UnlistedCellsAreDropped) {
  const auto q = streamed_records(
      2, [](int i) { return i == 0 ? 0 : 5; },  // 5 is not a cell
      std::make_shared<RootBudget>(1e12), 33);
  const auto released = q.noisy_counts(std::vector<int>{0, 1}, kIdentity,
                                       1e7);
  EXPECT_NEAR(released[0], 1.0, 0.01);
  EXPECT_NEAR(released[1], 0.0, 0.01);
}

TEST(StreamingHistogram, ReleaseChargesOneEpsilonForAllCells) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const auto q = streamed_records(100, [](int i) { return i % 5; }, budget, 1);
  std::ignore = q.noisy_counts(std::vector<int>{0, 1, 2, 3, 4}, kIdentity,
                               0.25);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.25);
}

TEST(StreamingHistogram, RepeatedReleasesChargeAgainWithFreshNoise) {
  auto budget = std::make_shared<RootBudget>(1.0);
  auto pushed = std::make_shared<int>(0);
  const auto q =
      streamed_records(1000, [](int) { return 0; }, budget, 2, pushed);
  const auto first = q.noisy_counts(std::vector<int>{0}, kIdentity, 0.3);
  const auto second = q.noisy_counts(std::vector<int>{0}, kIdentity, 0.3);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.6);
  EXPECT_NE(first[0], second[0]);
  EXPECT_EQ(*pushed, 2000);  // a second demand streams again
}

TEST(StreamingHistogram, ReleaseRefusedWhenOverBudget) {
  auto budget = std::make_shared<RootBudget>(0.1);
  const auto q = streamed_records(1, [](int) { return 0; }, budget, 3);
  EXPECT_THROW(std::ignore = q.noisy_counts(std::vector<int>{0}, kIdentity,
                                            0.5),
               BudgetExhaustedError);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.0);
}

TEST(StreamingHistogram, RejectsBadConstruction) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const auto q = streamed_records(1, [](int) { return 0; }, budget, 4);
  EXPECT_THROW(std::ignore = q.noisy_counts(std::vector<int>{0, 0},
                                            kIdentity, 0.5),
               InvalidQueryError);
  const auto none = [](plan::SourceSink<int>&) {};
  EXPECT_THROW(std::ignore = Queryable<int>::streamed(
                   none, nullptr, std::make_shared<NoiseSource>(4)),
               InvalidQueryError);
  EXPECT_THROW(std::ignore = Queryable<int>::streamed(none, budget, nullptr),
               InvalidQueryError);
  // The records are never stored, so nothing can read them in place.
  EXPECT_THROW(std::ignore = q.data_unsafe(), InvalidQueryError);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.0);
}

TEST(StreamingHistogram, RejectsNonPositiveEps) {
  const auto q = streamed_records(1, [](int) { return 0; },
                                  std::make_shared<RootBudget>(1.0), 5);
  EXPECT_THROW(std::ignore = q.noisy_counts(std::vector<int>{0}, kIdentity,
                                            0.0),
               InvalidEpsilonError);
}

TEST(StreamingHistogram, NoiseMatchesLaplaceScale) {
  // Empirical stddev of release noise at eps=1 is sqrt(2).
  double sum_sq = 0.0;
  const int trials = 5000;
  const auto q = streamed_records(100, [](int) { return 0; },
                                  std::make_shared<RootBudget>(1e12), 55);
  for (int t = 0; t < trials; ++t) {
    const double err =
        q.noisy_counts(std::vector<int>{0}, kIdentity, 1.0)[0] - 100.0;
    sum_sq += err * err;
  }
  EXPECT_NEAR(std::sqrt(sum_sq / trials), std::sqrt(2.0), 0.1);
}

// Releases commit through the one release primitive (core/release.hpp),
// so they keep every aggregation's invariants: guard checkpoint and
// failpoint before the charge, and a ledger entry stamped with a node id.

TEST(StreamingHistogram, TrippedGuardAbortsTheReleaseBeforeItsCharge) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const auto q = streamed_records(1, [](int) { return 0; }, budget, 8);
  QueryGuard guard;
  guard.cancel();
  const GuardScope scope(guard);
  EXPECT_THROW(std::ignore = q.noisy_counts(std::vector<int>{0, 1},
                                            kIdentity, 0.5),
               QueryAbortedError);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.0);
}

TEST(StreamingHistogram, ReleaseChargeFailpointStopsTheReleaseBeforeItsCharge) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const auto q = streamed_records(1, [](int) { return 0; }, budget, 9);
  {
    failpoint::ScopedFailpoint fp("core.release.charge", [](std::string_view) {
      throw std::runtime_error("injected");
    });
    EXPECT_THROW(std::ignore = q.noisy_counts(std::vector<int>{0}, kIdentity,
                                              0.5),
                 std::runtime_error);
  }
  EXPECT_DOUBLE_EQ(budget->spent(), 0.0);
  // Disarmed: the release commits.
  std::ignore = q.noisy_counts(std::vector<int>{0}, kIdentity, 0.5);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.5);
}

TEST(StreamingHistogram, LedgerEntryCarriesTheHistogramsFixedNodeId) {
  const auto charged_node = [] {
    auto audit =
        std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
    const auto q = streamed_records(1, [](int) { return 1; }, audit, 77);
    std::ignore = q.noisy_counts(std::vector<int>{0, 1}, kIdentity, 0.25);
    EXPECT_EQ(audit->entries().size(), 1u);
    EXPECT_EQ(audit->entries().front().node_id, q.plan_node().id());
    return audit->entries().front().node_id;
  };
  const std::uint64_t first = charged_node();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(charged_node(), first);  // same seed, same id, every run
}

// A streamed scan checkpoints the guard once per SourceSink batch, so a
// guard tripped mid-stream stops the generator within one batch.
TEST(StreamingHistogram, GuardTrippedMidStreamStopsTheGeneratorWithinABatch) {
  auto budget = std::make_shared<RootBudget>(1.0);
  QueryGuard guard;
  int pushed = 0;
  const auto q = Queryable<int>::streamed(
      [&guard, &pushed](plan::SourceSink<int>& sink) {
        for (int i = 0; i < 1'000'000; ++i) {
          if (i == 5000) guard.cancel();
          ++pushed;
          sink(0);
        }
      },
      budget, std::make_shared<NoiseSource>(13));
  const GuardScope scope(guard);
  EXPECT_THROW(std::ignore = q.noisy_counts(std::vector<int>{0}, kIdentity,
                                            0.5),
               QueryAbortedError);
  EXPECT_GT(pushed, 5000);
  EXPECT_LE(pushed, 5000 + static_cast<int>(plan::SourceSink<int>::kRows));
  EXPECT_DOUBLE_EQ(budget->spent(), 0.0);
}

// Concurrent demands on one streamed source run its generator one at a
// time, so the generator need not be reentrant: `runs` is a plain int.
TEST(StreamingHistogram, ConcurrentDemandsRunTheGeneratorOneAtATime) {
  std::atomic<int> running{0};
  std::atomic<int> most_running{0};
  int runs = 0;
  const auto q = Queryable<int>::streamed(
      [&running, &most_running, &runs](plan::SourceSink<int>& sink) {
        const int now = running.fetch_add(1) + 1;
        int most = most_running.load();
        while (now > most && !most_running.compare_exchange_weak(most, now)) {
        }
        ++runs;
        for (int i = 0; i < 200'000; ++i) sink(i % 4);
        running.fetch_sub(1);
      },
      std::make_shared<RootBudget>(1e12), std::make_shared<NoiseSource>(12));
  constexpr std::size_t kDemands = 8;
  std::vector<std::vector<double>> released(kDemands);
  std::vector<std::function<void()>> tasks;
  for (std::size_t d = 0; d < kDemands; ++d) {
    tasks.push_back([&q, &released, d] {
      released[d] = q.noisy_counts(std::vector<int>{0, 1, 2, 3}, kIdentity,
                                   1e7);
    });
  }
  exec::Executor(exec::ExecPolicy(4)).run(std::move(tasks));
  EXPECT_EQ(most_running.load(), 1);
  EXPECT_EQ(runs, static_cast<int>(kDemands));
  for (const auto& counts : released) {
    ASSERT_EQ(counts.size(), 4u);
    for (const double c : counts) EXPECT_NEAR(c, 50'000.0, 0.01);
  }
}

TEST(StreamingIspTraffic, StreamAgreesWithMaterializedGenerate) {
  tracegen::IspConfig cfg = tracegen::IspConfig::small();
  tracegen::IspTrafficGenerator gen_a(cfg);
  const auto records = gen_a.generate();

  tracegen::IspTrafficGenerator gen_b(cfg);
  std::size_t streamed = 0;
  std::vector<std::vector<double>> observed(
      static_cast<std::size_t>(cfg.links),
      std::vector<double>(static_cast<std::size_t>(cfg.windows), 0.0));
  gen_b.stream([&](const net::LinkPacket& r) {
    ++streamed;
    observed[static_cast<std::size_t>(r.link)]
            [static_cast<std::size_t>(r.window)] += 1.0;
  });
  EXPECT_EQ(streamed, records.size());
  EXPECT_EQ(observed, gen_b.true_counts());
  EXPECT_EQ(gen_a.true_counts(), gen_b.true_counts());
}

}  // namespace
}  // namespace dpnet::core
