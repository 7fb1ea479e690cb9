// Per-analyst budget gauges and the event journal's ops-surface
// plumbing: AuditingBudget feeds budget.spent.<label> /
// budget.remaining.<label> / budget.refusals.<label> on the global
// MetricsRegistry (docs/observability.md), and every charge/refusal is
// witnessed by the global EventJournal unless the journal kill switch is
// off.  Tests here use per-case unique labels and delta-based
// assertions on the monotone series (spent, refusals): the global
// registry outlives individual cases and --gtest_repeat iterations when
// the whole binary runs in one process.  The remaining gauge is set,
// not accumulated, so its absolute checks hold on every repeat.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/audit.hpp"
#include "core/budget.hpp"
#include "core/metrics.hpp"
#include "core/obs/journal.hpp"

namespace dpnet::core {
namespace {

// A labeled charge lands on all three of: the accountant, the spent
// gauge, and (finitely-capped inner => finite headroom) the remaining
// gauge.
TEST(BudgetGauges, LabeledChargesFeedPerAnalystGauges) {
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(2.0));
  const ScopedAuditLabel label(*audit, "gauge.alice");
  const double before = builtin_metrics::budget_spent("gauge.alice").value();
  audit->charge(0.5);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_spent("gauge.alice").value(),
                   before + 0.5);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_remaining("gauge.alice").value(),
                   1.5);
  audit->charge(0.25);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_spent("gauge.alice").value(),
                   before + 0.75);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_remaining("gauge.alice").value(),
                   1.25);
}

// Two analysts on one accountant: ScopedAuditLabel routes each charge to
// its own gauge series; the shared accountant sums both.
TEST(BudgetGauges, LabelsSeparateAnalystSeries) {
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(2.0));
  const double bob_before = builtin_metrics::budget_spent("gauge.bob").value();
  const double carol_before =
      builtin_metrics::budget_spent("gauge.carol").value();
  {
    const ScopedAuditLabel label(*audit, "gauge.bob");
    audit->charge(0.5);
  }
  {
    const ScopedAuditLabel label(*audit, "gauge.carol");
    audit->charge(0.25);
  }
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_spent("gauge.bob").value(),
                   bob_before + 0.5);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_spent("gauge.carol").value(),
                   carol_before + 0.25);
  EXPECT_DOUBLE_EQ(audit->spent(), 0.75);
}

// Refusals never move the spent gauge or the ledger — they count on the
// per-analyst refusal counter instead, via both the throwing charge()
// path and the boolean try_charge() path.
TEST(BudgetGauges, RefusalsCountWithoutTouchingSpent) {
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
  const ScopedAuditLabel label(*audit, "gauge.dave");
  const std::uint64_t refusals_before =
      builtin_metrics::budget_refusals("gauge.dave").value();
  const double spent_before =
      builtin_metrics::budget_spent("gauge.dave").value();
  audit->charge(0.75);
  EXPECT_THROW(audit->charge(0.5), BudgetExhaustedError);
  EXPECT_FALSE(audit->try_charge(0.5));
  EXPECT_EQ(builtin_metrics::budget_refusals("gauge.dave").value(),
            refusals_before + 2);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_spent("gauge.dave").value(),
                   spent_before + 0.75);
  EXPECT_EQ(audit->entries().size(), 1u);
  EXPECT_DOUBLE_EQ(audit->spent(), 0.75);
}

// An empty audit label maps to the "unlabeled" series so the metric
// names stay well-formed.
TEST(BudgetGauges, EmptyLabelMapsToUnlabeledSeries) {
  EXPECT_EQ(&builtin_metrics::budget_spent(""),
            &builtin_metrics::budget_spent("unlabeled"));
  EXPECT_EQ(&builtin_metrics::budget_refusals(""),
            &builtin_metrics::budget_refusals("unlabeled"));
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
  const double before = builtin_metrics::budget_spent("unlabeled").value();
  audit->charge(0.125);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_spent("unlabeled").value(),
                   before + 0.125);
}

// An accountant with no cap of its own reports remaining() == +infinity;
// the remaining gauge must never be fed an "inf" sample (it would not
// survive JSON export), so it stays at its default.
TEST(BudgetGauges, RemainingGaugeSkippedForUnboundedAccountants) {
  class UnboundedBudget final : public PrivacyBudget {
   public:
    [[nodiscard]] bool can_charge(double) const override { return true; }
    void charge(double eps) override { spent_ += eps; }
    [[nodiscard]] bool try_charge(double eps) override {
      spent_ += eps;
      return true;
    }
    [[nodiscard]] double spent() const override { return spent_; }

   private:
    double spent_ = 0.0;
  };
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<UnboundedBudget>());
  const ScopedAuditLabel label(*audit, "gauge.unbounded");
  const double before =
      builtin_metrics::budget_spent("gauge.unbounded").value();
  audit->charge(0.5);
  EXPECT_DOUBLE_EQ(builtin_metrics::budget_spent("gauge.unbounded").value(),
                   before + 0.5);
  EXPECT_DOUBLE_EQ(
      builtin_metrics::budget_remaining("gauge.unbounded").value(), 0.0);
}

// The per-analyst series ride the existing exports: JSON by their
// dotted names, Prometheus as one family per position with the analyst
// as a proper label value (docs/observability.md).
TEST(BudgetGauges, PerAnalystSeriesAppearInExports) {
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
  const ScopedAuditLabel label(*audit, "promanalyst");
  audit->charge(0.25);
  const std::string json = MetricsRegistry::global().to_json();
  EXPECT_NE(json.find("budget.spent.promanalyst"), std::string::npos);
  EXPECT_NE(json.find("budget.remaining.promanalyst"), std::string::npos);
  const std::string prom = MetricsRegistry::global().to_prometheus();
  EXPECT_NE(prom.find("dpnet_budget_spent{analyst=\"promanalyst\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("dpnet_budget_remaining{analyst=\"promanalyst\"}"),
            std::string::npos);
  // One TYPE declaration per family, not one per analyst.
  const std::string type_line = "# TYPE dpnet_budget_spent gauge";
  const std::size_t first = prom.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(prom.find(type_line, first + 1), std::string::npos);
}

// The journal kill switch: disarmed, a charge and a refusal leave the
// global journal untouched (the emission sites are one relaxed load);
// re-armed, the next charge is witnessed again.
TEST(BudgetGauges, JournalKillSwitchSuppressesEmission) {
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
  obs::set_journal_armed(false);
  const std::uint64_t before = obs::EventJournal::global().appended();
  audit->charge(0.25);
  EXPECT_THROW(audit->charge(1.0), BudgetExhaustedError);
  EXPECT_EQ(obs::EventJournal::global().appended(), before);
  obs::set_journal_armed(true);
  audit->charge(0.25);
  EXPECT_EQ(obs::EventJournal::global().appended(), before + 1);
}

// The bounded ring degrades by forgetting the oldest events — never by
// blocking or growing: appended/dropped count faithfully and the flush
// header carries the drop count to the offline verifier.
TEST(BudgetGauges, BoundedRingDropsOldestAndReportsCount) {
  obs::EventJournal journal(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    journal.append(obs::EventKind::kCharge, "ring", i + 1, 0.125, "laplace");
  }
  EXPECT_EQ(journal.appended(), 6u);
  EXPECT_EQ(journal.dropped(), 2u);
  const auto events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 2u);
  EXPECT_EQ(events.front().node_id, 3u);
  EXPECT_EQ(events.back().seq, 5u);
  const obs::JournalVerification v =
      obs::verify_journal_text(journal.to_jsonl(/*canonical=*/false));
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, 4u);
  EXPECT_EQ(v.dropped, 2u);
}

// Both flush orders round-trip through the verifier with the same
// tallies: canonical (renumbered seq, no timestamps) for artifacts,
// arrival (original seq, ts_us) for `audit tail`.
TEST(BudgetGauges, BothFlushOrdersRoundTripThroughVerifier) {
  obs::EventJournal journal(64);
  journal.append(obs::EventKind::kCharge, "rt", 7, 0.5, "laplace");
  journal.append(obs::EventKind::kRefusal, "rt", 3, 0.75, "");
  journal.append(obs::EventKind::kAbort, "", 0, 0.0, "deadline");
  journal.append(obs::EventKind::kTaskBegin, "", 11, 0.0, "");
  journal.append(obs::EventKind::kTaskEnd, "", 11, 0.0, "ok");
  journal.append(obs::EventKind::kFault, "", 7, 0.0, "core.release.charge");
  journal.append(obs::EventKind::kQuarantine, "", 0, 0.0, "net.trace_io");
  for (const bool canonical : {true, false}) {
    const obs::JournalVerification v =
        obs::verify_journal_text(journal.to_jsonl(canonical));
    ASSERT_TRUE(v.ok) << v.error << " canonical=" << canonical;
    EXPECT_EQ(v.events, 7u);
    EXPECT_EQ(v.charges, 1u);
    EXPECT_EQ(v.refusals, 1u);
    EXPECT_EQ(v.aborts, 1u);
    EXPECT_EQ(v.tasks, 1u);
    EXPECT_EQ(v.faults, 1u);
    EXPECT_EQ(v.quarantined, 1u);
    EXPECT_DOUBLE_EQ(v.charged_eps, 0.5);
    EXPECT_DOUBLE_EQ(v.refused_eps, 0.75);
  }
}

}  // namespace
}  // namespace dpnet::core
