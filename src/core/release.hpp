// The one release primitive: how every aggregation crosses the privacy
// curtain.
//
// Every Queryable aggregation, noisy_counts' whole histogram included,
// commits through commit_release(), so every release gets the same
// invariants (docs/robustness.md): a guard checkpoint and the
// "core.release.charge" failpoint *before* the charge, the charge under a
// ScopedChargeNode so an AuditingBudget stamps its ledger entry (and the
// journal its event) with the releasing node's id, then the metrics and
// the trace span.
// Nothing after the charge can throw an abort, so an aborted release
// charges nothing and a committed charge is never refunded.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/guard.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"

namespace dpnet::core {

namespace detail {

/// One (budget, stability) pair.  An aggregation at accuracy eps charges
/// stability * eps to the budget.
struct ChargeEntry {
  std::shared_ptr<PrivacyBudget> budget;
  double stability = 1.0;
};

using ChargeList = std::vector<ChargeEntry>;

inline ChargeList scale_charges(ChargeList charges, double factor) {
  for (auto& c : charges) c.stability *= factor;
  return charges;
}

/// Merges two charge lists, summing stabilities of entries that share a
/// budget object (two views of the same source compose additively).
inline ChargeList merge_charges(const ChargeList& a, const ChargeList& b) {
  ChargeList out = a;
  for (const auto& entry : b) {
    auto it = std::find_if(out.begin(), out.end(), [&](const ChargeEntry& e) {
      return e.budget == entry.budget;
    });
    if (it != out.end()) {
      it->stability += entry.stability;
    } else {
      out.push_back(entry);
    }
  }
  return out;
}

inline double total_stability(const ChargeList& charges) {
  double s = 0.0;
  for (const auto& c : charges) s += c.stability;
  return s;
}

inline void check_epsilon(double eps) {
  if (!(eps > 0.0) || !std::isfinite(eps)) {
    throw InvalidEpsilonError("aggregation epsilon must be positive finite");
  }
}

[[noreturn]] inline void refuse_charge(double eps) {
  builtin_metrics::refused_charges().increment();
  throw BudgetExhaustedError(
      "privacy budget exhausted for aggregation at epsilon " +
      std::to_string(eps));
}

/// Commits an aggregation's charges.  The common single-accountant case
/// is one atomic try_charge, safe under any number of concurrent
/// releases.  Multi-accountant commits (join/concat pipelines; two
/// entries never alias the same budget because merge_charges sums them)
/// must be all-or-nothing across several budgets, so they serialize on a
/// process-wide mutex; a concurrent single-accountant commit on one of
/// the same budgets can still slip between the check and commit phases,
/// in which case the per-budget charge() re-checks under its own lock —
/// the budget itself can never overdraw.
inline void charge_all(const ChargeList& charges, double eps) {
  if (charges.size() == 1) {
    const auto& c = charges.front();
    if (!c.budget->try_charge(c.stability * eps)) refuse_charge(eps);
    return;
  }
  static std::mutex multi_mutex;
  const std::lock_guard<std::mutex> lock(multi_mutex);
  for (const auto& c : charges) {
    if (!c.budget->can_charge(c.stability * eps)) refuse_charge(eps);
  }
  for (const auto& c : charges) c.budget->charge(c.stability * eps);
}

}  // namespace detail

/// What one release commits and reports on its span.
struct ReleaseInfo {
  const char* op;          // span name and op.wall_ms.<kind>
  const char* mechanism;   // "laplace" / "geometric" / "exponential"
  double eps;              // analyst-chosen accuracy
  std::uint64_t node_id;   // ledger/journal stamp, abort and refusal site
  std::size_t input_rows;  // rows the aggregation read
  std::size_t output_rows; // values it releases
};

/// Commits one release against `charges`: guard checkpoint, then the
/// "core.release.charge" failpoint, then the charge (under the node's
/// ScopedChargeNode), then the built-in metrics, then the span.  Throws
/// BudgetExhaustedError on refusal (span detail "refused") and
/// QueryAbortedError on a tripped guard (span detail "aborted"), having
/// charged nothing either way.  `trace_tag` ("partition[key]") prefixes
/// the span detail.
inline void commit_release(TraceScope& scope,
                           const detail::ChargeList& charges,
                           const ReleaseInfo& info,
                           std::chrono::steady_clock::time_point start,
                           const std::string& trace_tag = {}) {
  const ScopedChargeNode charge_node(info.node_id);
  try {
    guard_checkpoint("release", info.node_id);
    failpoint::hit("core.release.charge", info.mechanism);
    detail::charge_all(charges, info.eps);
  } catch (const BudgetExhaustedError&) {
    scope.set_detail(trace_tag.empty() ? "refused" : trace_tag + ";refused");
    throw;
  } catch (const QueryAbortedError&) {
    scope.set_detail(trace_tag.empty() ? "aborted" : trace_tag + ";aborted");
    throw;
  }
  const double stability = detail::total_stability(charges);
  const double charged = stability * info.eps;
  builtin_metrics::queries_executed().increment();
  builtin_metrics::eps_charged(info.mechanism).add(charged);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  builtin_metrics::query_wall_ms().observe(wall_ms);
  // Releases are not plan evaluations, so this is their op.wall_ms.<kind>
  // checkpoint (plan nodes record theirs in plan::Node::evaluate).
  builtin_metrics::observe_op_wall_ms(info.op, wall_ms);
  scope.set_mechanism(info.mechanism);
  scope.set_stability(stability);
  scope.set_eps(info.eps, charged);
  scope.set_rows(static_cast<std::int64_t>(info.input_rows),
                 static_cast<std::int64_t>(info.output_rows));
  if (!trace_tag.empty()) scope.set_detail(trace_tag);
}

}  // namespace dpnet::core
