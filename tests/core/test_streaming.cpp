#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>

#include "core/audit.hpp"
#include "core/failpoint.hpp"
#include "core/guard.hpp"
#include "tracegen/isp_traffic.hpp"

namespace dpnet::core {
namespace {

StreamingHistogram<int> make_histogram(std::vector<int> cells,
                                       double budget_total = 1e12,
                                       std::uint64_t seed = 33) {
  return {std::move(cells), std::make_shared<RootBudget>(budget_total),
          std::make_shared<NoiseSource>(seed)};
}

TEST(StreamingHistogram, CountsFedRecordsPerCell) {
  auto hist = make_histogram({0, 1, 2});
  for (int i = 0; i < 90; ++i) hist.feed(i % 3);
  const auto released = hist.release(1e7);
  EXPECT_NEAR(released.at(0), 30.0, 0.01);
  EXPECT_NEAR(released.at(1), 30.0, 0.01);
  EXPECT_NEAR(released.at(2), 30.0, 0.01);
  EXPECT_EQ(hist.records_seen(), 90u);
}

TEST(StreamingHistogram, UnlistedCellsAreDropped) {
  auto hist = make_histogram({0, 1});
  hist.feed(0);
  hist.feed(5);  // not a cell
  const auto released = hist.release(1e7);
  EXPECT_NEAR(released.at(0), 1.0, 0.01);
  EXPECT_NEAR(released.at(1), 0.0, 0.01);
}

TEST(StreamingHistogram, ReleaseChargesOneEpsilonForAllCells) {
  auto budget = std::make_shared<RootBudget>(1.0);
  StreamingHistogram<int> hist({0, 1, 2, 3, 4},
                               budget, std::make_shared<NoiseSource>(1));
  for (int i = 0; i < 100; ++i) hist.feed(i % 5);
  static_cast<void>(hist.release(0.25));
  EXPECT_DOUBLE_EQ(budget->spent(), 0.25);
}

TEST(StreamingHistogram, RepeatedReleasesChargeAgainWithFreshNoise) {
  auto budget = std::make_shared<RootBudget>(1.0);
  StreamingHistogram<int> hist({0}, budget,
                               std::make_shared<NoiseSource>(2));
  for (int i = 0; i < 1000; ++i) hist.feed(0);
  const auto first = hist.release(0.3);
  const auto second = hist.release(0.3);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.6);
  EXPECT_NE(first.at(0), second.at(0));
}

TEST(StreamingHistogram, ReleaseRefusedWhenOverBudget) {
  auto budget = std::make_shared<RootBudget>(0.1);
  StreamingHistogram<int> hist({0}, budget,
                               std::make_shared<NoiseSource>(3));
  hist.feed(0);
  EXPECT_THROW(hist.release(0.5), BudgetExhaustedError);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.0);
}

TEST(StreamingHistogram, RejectsBadConstruction) {
  auto budget = std::make_shared<RootBudget>(1.0);
  auto noise = std::make_shared<NoiseSource>(4);
  EXPECT_THROW(StreamingHistogram<int>({0, 0}, budget, noise),
               InvalidQueryError);
  EXPECT_THROW(StreamingHistogram<int>({0}, nullptr, noise),
               InvalidQueryError);
  EXPECT_THROW(StreamingHistogram<int>({0}, budget, nullptr),
               InvalidQueryError);
}

TEST(StreamingHistogram, RejectsNonPositiveEps) {
  auto hist = make_histogram({0});
  EXPECT_THROW(hist.release(0.0), InvalidEpsilonError);
}

TEST(StreamingHistogram, NoiseMatchesLaplaceScale) {
  // Empirical stddev of release noise at eps=1 is sqrt(2).
  double sum_sq = 0.0;
  const int trials = 5000;
  auto hist = make_histogram({0}, 1e12, 55);
  for (int i = 0; i < 100; ++i) hist.feed(0);
  for (int t = 0; t < trials; ++t) {
    const double err = hist.release(1.0).at(0) - 100.0;
    sum_sq += err * err;
  }
  EXPECT_NEAR(std::sqrt(sum_sq / trials), std::sqrt(2.0), 0.1);
}

// Releases commit through the one release primitive (core/release.hpp),
// so they keep Queryable's invariants: guard checkpoint and failpoint
// before the charge, and a ledger entry stamped with a node id.

TEST(StreamingHistogram, TrippedGuardAbortsTheReleaseBeforeItsCharge) {
  auto budget = std::make_shared<RootBudget>(1.0);
  StreamingHistogram<int> hist({0, 1}, budget,
                               std::make_shared<NoiseSource>(8));
  hist.feed(0);
  QueryGuard guard;
  guard.cancel();
  const GuardScope scope(guard);
  EXPECT_THROW(static_cast<void>(hist.release(0.5)), QueryAbortedError);
  EXPECT_DOUBLE_EQ(budget->spent(), 0.0);
}

TEST(StreamingHistogram, ReleaseChargeFailpointStopsTheReleaseBeforeItsCharge) {
  auto budget = std::make_shared<RootBudget>(1.0);
  StreamingHistogram<int> hist({0}, budget, std::make_shared<NoiseSource>(9));
  hist.feed(0);
  {
    failpoint::ScopedFailpoint fp("core.release.charge", [](std::string_view) {
      throw std::runtime_error("injected");
    });
    EXPECT_THROW(static_cast<void>(hist.release(0.5)), std::runtime_error);
  }
  EXPECT_DOUBLE_EQ(budget->spent(), 0.0);
  static_cast<void>(hist.release(0.5));  // disarmed: the release commits
  EXPECT_DOUBLE_EQ(budget->spent(), 0.5);
}

TEST(StreamingHistogram, LedgerEntryCarriesTheHistogramsFixedNodeId) {
  const auto charged_node = [] {
    auto audit =
        std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
    StreamingHistogram<int> hist({0, 1}, audit,
                                 std::make_shared<NoiseSource>(77));
    hist.feed(1);
    static_cast<void>(hist.release(0.25));
    EXPECT_EQ(audit->entries().size(), 1u);
    EXPECT_EQ(audit->entries().front().node_id, hist.id());
    return audit->entries().front().node_id;
  };
  const std::uint64_t first = charged_node();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(charged_node(), first);  // same seed, same id, every run
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
