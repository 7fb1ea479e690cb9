// Queryable<T>: the declarative, privacy-accounted query surface.
//
// This is a from-scratch C++ analogue of PINQ's PINQueryable.  A Queryable
// wraps a protected record collection behind a "privacy curtain": the
// analyst composes transformations (Where/Select/GroupBy/Join/...) freely,
// but can only observe the data through noisy aggregations whose privacy
// cost is charged to an attached budget.
//
// Stability accounting (paper Table 1):
//   Where/Select/Distinct ................ stability x1
//   SelectMany(max_fanout=k) ............. stability xk
//   GroupBy .............................. stability x2
//   Join/Concat/Intersect ................ per-input stability preserved;
//                                          both inputs are charged
//   Partition ............................ parts share the source's cost
//                                          as a maximum, not a sum
//
// Execution architecture (docs/architecture.md): a Queryable is a thin
// fluent handle over a logical plan node (core/plan.hpp) plus the charge
// list and noise stream needed to release aggregates.  Transformations
// build plan nodes lazily; nothing is materialized until an aggregation
// or Partition forces it, and materializations are memoized so a shared
// sub-query is evaluated once — even when core::exec workers race to
// force it.
//
// Determinism: every aggregation draws its noise from a NoiseSource
// forked on (root noise stream, plan-node id, per-node release ordinal),
// so for a fixed seed the released values are byte-identical whether the
// plan runs sequentially or across an executor's threads, in any
// schedule.
//
// Observability: when a TraceSession is active on the executing thread,
// every operator and aggregation records a TraceSpan (core/trace.hpp) and
// the built-in metrics (core/metrics.hpp) count queries, charges, and
// refusals.  A memoized node contributes its operator span only on first
// materialization; later aggregations over the same node record just the
// release span.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/budget.hpp"
#include "core/errors.hpp"
#include "core/exec/group_aggregate.hpp"
#include "core/failpoint.hpp"
#include "core/group.hpp"
#include "core/grouping/builder.hpp"
#include "core/grouping/table.hpp"
#include "core/guard.hpp"
#include "core/hash.hpp"
#include "core/mechanisms.hpp"
#include "core/metrics.hpp"
#include "core/noise.hpp"
#include "core/plan.hpp"
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

/// Stringifies a partition key for trace annotations (numbers and strings
/// verbatim; opaque key types fall back to a placeholder suffixed with
/// the key's index in the analyst's key list, so distinct keys keep
/// distinct tags).  Partition keys are analyst-supplied public values, so
/// exposing them in telemetry leaks nothing about the protected records.
template <typename K>
std::string key_to_tag(const K& k, std::size_t index) {
  if constexpr (std::is_arithmetic_v<K>) {
    return std::to_string(k);
  } else if constexpr (std::is_convertible_v<const K&, std::string>) {
    return std::string(k);
  } else {
    return "?" + std::to_string(index);
  }
}

}  // namespace detail

template <typename T>
class Queryable {
 public:
  using value_type = T;

  /// Wraps `data` as a protected dataset governed by `budget`.
  Queryable(std::vector<T> data, std::shared_ptr<PrivacyBudget> budget,
            std::shared_ptr<NoiseSource> noise)
      : charges_{{std::move(budget), 1.0}}, noise_(std::move(noise)) {
    if (!charges_.front().budget) {
      throw InvalidQueryError("queryable requires a budget");
    }
    if (!noise_) throw InvalidQueryError("queryable requires a noise source");
    stream_ = noise_->stream_base();
    node_ = std::make_shared<plan::Node<T>>(mix64(plan::kRootSalt, stream_),
                                            "source", std::move(data));
  }

  // ---------------------------------------------------------------------
  // Transformations
  // ---------------------------------------------------------------------

  /// Keeps records satisfying `pred`.  No stability change.
  template <typename Pred>
  [[nodiscard]] Queryable<T> where(Pred pred) const {
    auto parent = node_;
    return derived<T>(
        "where", 1.0,
        [parent, pred]() {
          std::vector<T> out;
          for (const auto& x : parent->rows()) {
            if (pred(x)) out.push_back(x);
          }
          return out;
        },
        charges_);
  }

  /// Maps each record through `f`.  No stability change.
  template <typename F>
  [[nodiscard]] auto select(F f) const
      -> Queryable<std::decay_t<std::invoke_result_t<F, const T&>>> {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    auto parent = node_;
    return derived<U>(
        "select", 1.0,
        [parent, f]() {
          std::vector<U> out;
          out.reserve(parent->rows().size());
          for (const auto& x : parent->rows()) out.push_back(f(x));
          return out;
        },
        charges_);
  }

  /// Maps each record to up to `max_fanout` records (outputs beyond the
  /// bound are truncated).  Stability multiplies by `max_fanout`: each
  /// input record can influence that many outputs.
  template <typename F>
  [[nodiscard]] auto select_many(F f, std::size_t max_fanout) const {
    using Container = std::decay_t<std::invoke_result_t<F, const T&>>;
    using U = std::decay_t<typename Container::value_type>;
    if (max_fanout == 0) {
      throw InvalidQueryError("select_many requires max_fanout >= 1");
    }
    auto parent = node_;
    return derived<U>(
        "select_many", static_cast<double>(max_fanout),
        [parent, f, max_fanout]() {
          std::vector<U> out;
          for (const auto& x : parent->rows()) {
            Container produced = f(x);
            std::size_t taken = 0;
            for (auto& item : produced) {
              if (taken++ == max_fanout) break;
              out.push_back(std::move(item));
            }
          }
          return out;
        },
        detail::scale_charges(charges_, static_cast<double>(max_fanout)));
  }

  /// Removes duplicate records (first occurrence kept).  Requires
  /// std::hash<T> and operator==.  No stability change.
  [[nodiscard]] Queryable<T> distinct() const {
    auto parent = node_;
    return derived<T>(
        "distinct", 1.0,
        [parent]() {
          std::vector<T> out;
          grouping::GroupTable<T> seen;
          for (const auto& x : parent->rows()) {
            if (seen.acquire(x).second) out.push_back(x);
          }
          return out;
        },
        charges_);
  }

  /// Groups records by `key(record)`.  Each group becomes one logical
  /// record; stability doubles (one record's arrival can remove a group
  /// and add a different one).  Grouping runs on the cache-conscious
  /// grouping engine (core/grouping, docs/architecture.md).
  template <typename KeyF>
  [[nodiscard]] auto group_by(KeyF key) const {
    using K = std::decay_t<std::invoke_result_t<KeyF, const T&>>;
    auto parent = node_;
    return derived<Group<K, T>>(
        "group_by", 2.0,
        [parent, key]() {
          grouping::GroupBuilder<K, T> builder;
          builder.add_rows(parent->rows(), key);
          return builder.take();
        },
        detail::scale_charges(charges_, 2.0));
  }

  /// group_by under an executor policy: identical accounting, plan-node
  /// id, and output to the sequential overload — the radix-partitioned
  /// two-phase merge (core/exec/group_aggregate.hpp) reproduces the
  /// sequential insertion order exactly at any thread count.
  template <typename KeyF>
  [[nodiscard]] auto group_by(KeyF key, exec::ExecPolicy policy) const {
    using K = std::decay_t<std::invoke_result_t<KeyF, const T&>>;
    auto parent = node_;
    return derived<Group<K, T>>(
        "group_by", 2.0,
        [parent, key, policy]() {
          return exec::parallel_group_by(policy, parent->rows(), key);
        },
        detail::scale_charges(charges_, 2.0));
  }

  /// The "more flexible grouping transformation" the paper proposes as a
  /// PINQ extension (§5.2.1): groups records by `key` preserving order,
  /// and *within* each key starts a new group whenever
  /// `starts_new_span(record)` holds (the first record of a key always
  /// starts one).  This is exactly what splitting a 5-tuple flow into TCP
  /// connections at each SYN needs.  Stability triples: one record's
  /// arrival can join a group, or split one group into two (one group
  /// removed, two added).
  template <typename KeyF, typename BoundaryF>
  [[nodiscard]] auto group_by_spans(KeyF key, BoundaryF starts_new_span)
      const {
    using K = std::decay_t<std::invoke_result_t<KeyF, const T&>>;
    auto parent = node_;
    return derived<Group<K, T>>(
        "group_by_spans", 3.0,
        [parent, key, starts_new_span]() {
          // Same GroupBuilder as group_by; only the span rule differs.
          grouping::GroupBuilder<K, T> builder;
          for (const auto& x : parent->rows()) {
            builder.add_span(key(x), x, [&] { return starts_new_span(x); });
          }
          return builder.take();
        },
        detail::scale_charges(charges_, 3.0));
  }

  /// PINQ's bounded-sensitivity Join: both inputs are grouped by their join
  /// key and matching groups are zipped element-wise, so one input record
  /// influences at most one output record.  Both inputs' budgets are
  /// charged by subsequent aggregations.
  template <typename U, typename KF1, typename KF2, typename RF>
  [[nodiscard]] auto join(const Queryable<U>& other, KF1 outer_key,
                          KF2 inner_key, RF result) const {
    using K = std::decay_t<std::invoke_result_t<KF1, const T&>>;
    using K2 = std::decay_t<std::invoke_result_t<KF2, const U&>>;
    static_assert(std::is_same_v<K, K2>,
                  "join key selectors must produce the same key type");
    using R = std::decay_t<std::invoke_result_t<RF, const T&, const U&>>;
    auto left = node_;
    auto right = other.node_;
    return derived_sized<R>(
        "join", 1.0,
        [left, right]() {
          return left->rows().size() + right->rows().size();
        },
        [left, right, outer_key, inner_key, result]() {
          grouping::GroupTable<K> by_key;
          std::vector<std::vector<const U*>> matches;
          for (const auto& y : right->rows()) {
            const auto [slot, inserted] = by_key.acquire(inner_key(y));
            if (inserted) matches.emplace_back();
            matches[slot].push_back(&y);
          }
          std::vector<std::size_t> used(matches.size(), 0);
          std::vector<R> out;
          for (const auto& x : left->rows()) {
            const std::uint32_t slot = by_key.find(outer_key(x));
            if (slot == grouping::kNoSlot) continue;
            std::size_t& u = used[slot];
            if (u >= matches[slot].size()) continue;  // group exhausted
            out.push_back(result(x, *matches[slot][u]));
            ++u;
          }
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Appends `other`.  Each input's stability is preserved; a record
  /// reaching the output through both inputs pays for both paths.
  [[nodiscard]] Queryable<T> concat(const Queryable<T>& other) const {
    auto left = node_;
    auto right = other.node_;
    return derived_sized<T>(
        "concat", 1.0,
        [left, right]() {
          return left->rows().size() + right->rows().size();
        },
        [left, right]() {
          std::vector<T> out = left->rows();
          const auto& r = right->rows();
          out.insert(out.end(), r.begin(), r.end());
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Set union of the distinct records of both inputs (left-then-right
  /// first-occurrence order).  Like Concat, each input's stability is
  /// preserved and both are charged.
  [[nodiscard]] Queryable<T> set_union(const Queryable<T>& other) const {
    auto left = node_;
    auto right = other.node_;
    return derived_sized<T>(
        "set_union", 1.0,
        [left, right]() {
          return left->rows().size() + right->rows().size();
        },
        [left, right]() {
          grouping::GroupTable<T> emitted;
          std::vector<T> out;
          for (const auto& x : left->rows()) {
            if (emitted.acquire(x).second) out.push_back(x);
          }
          for (const auto& x : right->rows()) {
            if (emitted.acquire(x).second) out.push_back(x);
          }
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Set difference: distinct records of this input absent from `other`.
  [[nodiscard]] Queryable<T> except(const Queryable<T>& other) const {
    auto left = node_;
    auto right = other.node_;
    return derived_sized<T>(
        "except", 1.0,
        [left, right]() {
          return left->rows().size() + right->rows().size();
        },
        [left, right]() {
          grouping::GroupTable<T> removed;
          for (const auto& y : right->rows()) removed.acquire(y);
          grouping::GroupTable<T> emitted;
          std::vector<T> out;
          for (const auto& x : left->rows()) {
            if (!removed.contains(x) && emitted.acquire(x).second) {
              out.push_back(x);
            }
          }
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Set intersection of the distinct records of both inputs.
  [[nodiscard]] Queryable<T> intersect(const Queryable<T>& other) const {
    auto left = node_;
    auto right = other.node_;
    return derived_sized<T>(
        "intersect", 1.0,
        [left, right]() {
          return left->rows().size() + right->rows().size();
        },
        [left, right]() {
          grouping::GroupTable<T> in_right;
          for (const auto& y : right->rows()) in_right.acquire(y);
          grouping::GroupTable<T> emitted;
          std::vector<T> out;
          for (const auto& x : left->rows()) {
            if (in_right.contains(x) && emitted.acquire(x).second) {
              out.push_back(x);
            }
          }
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Splits the dataset into one protected part per key in `keys`.
  /// Records whose key is not listed are dropped (PINQ semantics).  The
  /// cumulative privacy cost to this queryable is the *maximum* over the
  /// parts, not the sum — the paper's central cost-saving device.
  ///
  /// Parts are created in `keys` order, so their plan-node ids (and hence
  /// their noise streams and trace tags) do not depend on the key type's
  /// hash order.  Independent parts can be aggregated concurrently via
  /// core::exec.
  template <typename K, typename KeyF>
  [[nodiscard]] std::unordered_map<K, Queryable<T>> partition(
      const std::vector<K>& keys, KeyF key) const {
    grouping::GroupTable<K> key_index;
    key_index.reserve(keys.size());
    for (const auto& k : keys) {
      if (!key_index.acquire(k).second) {
        throw InvalidQueryError("partition keys must be distinct");
      }
    }
    // Partition is eager, so its span is recorded at call time; each
    // part's later aggregations carry a "partition[key]" annotation so the
    // trace shows the per-branch charges behind the max-cost rule.
    TraceScope scope("partition");
    // One PartitionGroup per upstream budget preserves max-cost semantics
    // against every accountant this queryable answers to.
    std::vector<std::shared_ptr<PartitionGroup>> groups;
    groups.reserve(charges_.size());
    for (const auto& c : charges_) {
      groups.push_back(
          std::make_shared<PartitionGroup>(c.budget, node_->id()));
    }
    guard_checkpoint("partition", node_->id());
    // key_index slot i corresponds to keys[i] (acquire order above), so
    // the buckets are a dense vector in `keys` order.
    std::vector<std::vector<T>> buckets(keys.size());
    contain_analyst("partition", node_->id(), [&] {
      for (const auto& x : node_->rows()) {
        const std::uint32_t slot = key_index.find(key(x));
        if (slot != grouping::kNoSlot) buckets[slot].push_back(x);
      }
    });
    scope.set_stability(total_stability());
    scope.set_rows(static_cast<std::int64_t>(node_->rows().size()),
                   static_cast<std::int64_t>(buckets.size()));
    std::unordered_map<K, Queryable<T>> parts;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const K& k = keys[i];
      detail::ChargeList part_charges;
      part_charges.reserve(charges_.size());
      for (std::size_t g = 0; g < charges_.size(); ++g) {
        part_charges.push_back(
            {std::make_shared<PartitionBudget>(groups[g]),
             charges_[g].stability});
      }
      auto part_node = std::make_shared<plan::Node<T>>(
          node_->next_child_id(), "partition_part", std::move(buckets[i]));
      parts.emplace(k, Queryable<T>(std::move(part_node),
                                    std::move(part_charges), noise_, stream_,
                                    "partition[" + detail::key_to_tag(k, i) +
                                        "]"));
    }
    return parts;
  }

  // ---------------------------------------------------------------------
  // Aggregations (the only way information crosses the privacy curtain)
  // ---------------------------------------------------------------------

  /// Noisy record count: true count + Laplace(stability / eps).
  [[nodiscard]] double noisy_count(double eps) const {
    detail::check_epsilon(eps);
    TraceScope scope("noisy_count");
    const auto start = std::chrono::steady_clock::now();
    const auto n = static_cast<double>(node_->rows().size());
    NoiseSource local(node_->next_release_seed(stream_));
    release(scope, "noisy_count", eps, "laplace", node_->rows().size(),
            start);
    return n + local.laplace(total_stability() / eps);
  }

  /// Integer-valued noisy count using the geometric mechanism.
  [[nodiscard]] std::int64_t noisy_count_geometric(double eps) const {
    detail::check_epsilon(eps);
    TraceScope scope("noisy_count_geometric");
    const auto start = std::chrono::steady_clock::now();
    const auto n = static_cast<std::int64_t>(node_->rows().size());
    NoiseSource local(node_->next_release_seed(stream_));
    release(scope, "noisy_count_geometric", eps, "geometric",
            node_->rows().size(), start);
    return geometric_mechanism(n, total_stability(), eps, local);
  }

  /// Noisy sum of `f(record)` with each term clamped to [-1, 1].
  template <typename F>
  [[nodiscard]] double noisy_sum(double eps, F f) const {
    detail::check_epsilon(eps);
    TraceScope scope("noisy_sum");
    const auto start = std::chrono::steady_clock::now();
    const double sum = contain_analyst("noisy_sum", node_->id(), [&] {
      double s = 0.0;
      for (const auto& x : node_->rows()) s += clamp_unit(f(x));
      return s;
    });
    NoiseSource local(node_->next_release_seed(stream_));
    release(scope, "noisy_sum", eps, "laplace", node_->rows().size(), start);
    return sum + local.laplace(total_stability() / eps);
  }

  /// Noisy sum of `f(record)` with each term clamped to [-magnitude,
  /// magnitude]; noise scales proportionally.  Convenience wrapper for
  /// bounded non-unit ranges (packet sizes, hop counts, ...).
  template <typename F>
  [[nodiscard]] double noisy_sum_scaled(double eps, F f,
                                        double magnitude) const {
    if (!(magnitude > 0.0)) {
      throw InvalidQueryError("noisy_sum_scaled requires magnitude > 0");
    }
    return magnitude *
           noisy_sum(eps, [&f, magnitude](const T& x) { return f(x) / magnitude; });
  }

  /// Noisy average of `f(record)` clamped to [-1, 1]; noise standard
  /// deviation is sqrt(8) / (eps * n) per Table 1.
  template <typename F>
  [[nodiscard]] double noisy_average(double eps, F f) const {
    detail::check_epsilon(eps);
    TraceScope scope("noisy_average");
    const auto start = std::chrono::steady_clock::now();
    const auto& data = node_->rows();
    const double n = std::max<double>(1.0, static_cast<double>(data.size()));
    const double sum = contain_analyst("noisy_average", node_->id(), [&] {
      double s = 0.0;
      for (const auto& x : data) s += clamp_unit(f(x));
      return s;
    });
    NoiseSource local(node_->next_release_seed(stream_));
    release(scope, "noisy_average", eps, "laplace", data.size(), start);
    return sum / n + local.laplace(2.0 * total_stability() / (eps * n));
  }

  /// Noisy average over [-magnitude, magnitude] values.
  template <typename F>
  [[nodiscard]] double noisy_average_scaled(double eps, F f,
                                            double magnitude) const {
    if (!(magnitude > 0.0)) {
      throw InvalidQueryError("noisy_average_scaled requires magnitude > 0");
    }
    return magnitude * noisy_average(
                           eps, [&f, magnitude](const T& x) { return f(x) / magnitude; });
  }

  /// Noisy median of `f(record)` via the exponential mechanism.  The
  /// result splits the input into sets whose sizes differ by roughly
  /// sqrt(2)/eps (Table 1).
  template <typename F>
  [[nodiscard]] double noisy_median(double eps, F f) const {
    return noisy_quantile(eps, 0.5, std::move(f));
  }

  /// Noisy q-quantile of `f(record)` (q in [0, 1]) via the exponential
  /// mechanism with rank-distance utility.
  template <typename F>
  [[nodiscard]] double noisy_quantile(double eps, double q, F f) const {
    detail::check_epsilon(eps);
    TraceScope scope("noisy_quantile");
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> values =
        contain_analyst("noisy_quantile", node_->id(), [&] {
          std::vector<double> vs;
          vs.reserve(node_->rows().size());
          for (const auto& x : node_->rows()) vs.push_back(f(x));
          return vs;
        });
    NoiseSource local(node_->next_release_seed(stream_));
    release(scope, "noisy_quantile", eps, "exponential", values.size(),
            start);
    return exponential_quantile(std::move(values), q,
                                eps / total_stability(), local);
  }

  // ---------------------------------------------------------------------
  // Trusted-side accessors
  // ---------------------------------------------------------------------
  // These bypass the privacy curtain.  They exist for the data owner's
  // side only: ground-truth baselines, tests, and experiment evaluation.
  // Nothing in the analyst-facing pipeline may call them.

  // dpnet-lint: trusted
  [[nodiscard]] std::size_t size_unsafe() const {
    return node_->rows().size();
  }
  [[nodiscard]] const std::vector<T>& data_unsafe() const {
    return node_->rows();
  }
  // dpnet-lint: end-trusted

  /// Combined stability across all charge entries (used by tests to verify
  /// Table 1 accounting).
  [[nodiscard]] double total_stability() const {
    double s = 0.0;
    for (const auto& c : charges_) s += c.stability;
    return s;
  }

  /// Number of distinct budget accountants this queryable charges.
  [[nodiscard]] std::size_t budget_count() const { return charges_.size(); }

  /// The logical plan node behind this queryable.  Exposes ids, operator
  /// names, and DAG shape only — diagnostics and tests, never record
  /// contents.
  [[nodiscard]] const plan::NodeBase& plan_node() const { return *node_; }

 private:
  template <typename>
  friend class Queryable;

  Queryable(std::shared_ptr<plan::Node<T>> node, detail::ChargeList charges,
            std::shared_ptr<NoiseSource> noise, std::uint64_t stream,
            std::string trace_tag = {})
      : node_(std::move(node)),
        charges_(std::move(charges)),
        noise_(std::move(noise)),
        stream_(stream),
        trace_tag_(std::move(trace_tag)) {}

  /// Commits an aggregation: charges every accountant, updates the
  /// built-in metrics, and fills in the aggregation's trace span.  Throws
  /// BudgetExhaustedError (charging nothing) on refusal, leaving a span
  /// marked "refused" so the data owner sees the attempt.  The charge
  /// runs under a ScopedChargeNode annotation so an AuditingBudget can
  /// stamp its ledger entry with this plan node's id.
  ///
  /// Charge-before-release invariant (docs/robustness.md): the guard
  /// checkpoint and the "core.release.charge" failpoint both sit *before*
  /// charge_all, and nothing after the charge can throw an abort.  So an
  /// aborted release charges nothing (span marked "aborted"), and once
  /// charge_all commits the epsilon is never refunded — there is no
  /// window where the ledger is half-charged.
  void release(TraceScope& scope, const char* op, double eps,
               const char* mechanism, std::size_t input_rows,
               std::chrono::steady_clock::time_point start) const {
    const ScopedChargeNode charge_node(node_->id());
    try {
      guard_checkpoint("release", node_->id());
      failpoint::hit("core.release.charge", mechanism);
      detail::charge_all(charges_, eps);
    } catch (const BudgetExhaustedError&) {
      scope.set_detail(trace_tag_.empty() ? "refused"
                                          : trace_tag_ + ";refused");
      throw;
    } catch (const QueryAbortedError&) {
      scope.set_detail(trace_tag_.empty() ? "aborted"
                                          : trace_tag_ + ";aborted");
      throw;
    }
    const double charged = total_stability() * eps;
    builtin_metrics::queries_executed().increment();
    builtin_metrics::eps_charged(mechanism).add(charged);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    builtin_metrics::query_wall_ms().observe(wall_ms);
    // Aggregations are releases, not plan materializations, so this is
    // their op.wall_ms.<kind> checkpoint (plan nodes record theirs in
    // plan::Node::rows()).
    builtin_metrics::observe_op_wall_ms(op, wall_ms);
    scope.set_mechanism(mechanism);
    scope.set_stability(total_stability());
    scope.set_eps(eps, charged);
    scope.set_rows(static_cast<std::int64_t>(input_rows), 1);
    if (!trace_tag_.empty()) scope.set_detail(trace_tag_);
  }

  template <typename U, typename ComputeF>
  [[nodiscard]] Queryable<U> derived(const char* op, double op_stability,
                                     ComputeF compute,
                                     detail::ChargeList charges) const {
    auto self = node_;
    return derived_sized<U>(
        op, op_stability, [self]() { return self->rows().size(); },
        std::move(compute), std::move(charges));
  }

  /// Builds the derived plan node.  The node id chains off this node's id
  /// and per-parent child ordinal (plan.hpp), and the node itself decides
  /// at materialization time whether to record an operator span.
  template <typename U, typename SizeF, typename ComputeF>
  [[nodiscard]] Queryable<U> derived_sized(
      const char* op, double op_stability, SizeF input_size, ComputeF compute,
      detail::ChargeList charges,
      std::shared_ptr<const plan::NodeBase> other_input = nullptr) const {
    std::vector<std::weak_ptr<const plan::NodeBase>> inputs;
    inputs.push_back(node_);
    if (other_input) inputs.push_back(std::move(other_input));
    auto derived_node = std::make_shared<plan::Node<U>>(
        node_->next_child_id(), op, op_stability,
        std::function<std::vector<U>()>(std::move(compute)),
        std::function<std::size_t()>(std::move(input_size)),
        std::move(inputs));
    return Queryable<U>(std::move(derived_node), std::move(charges), noise_,
                        stream_, trace_tag_);
  }

  std::shared_ptr<plan::Node<T>> node_;
  detail::ChargeList charges_;
  std::shared_ptr<NoiseSource> noise_;
  std::uint64_t stream_ = 0;  // root noise stream; node seeds fork off it
  std::string trace_tag_;     // "partition[key]" for partitioned parts
};

/// Convenience factory mirroring PINQ's `new PINQueryable<T>(trace, eps)`.
template <typename T>
[[nodiscard]] Queryable<T> make_queryable(std::vector<T> data,
                                          double total_epsilon,
                                          std::uint64_t seed = 1) {
  return Queryable<T>(std::move(data),
                      std::make_shared<RootBudget>(total_epsilon),
                      std::make_shared<NoiseSource>(seed));
}

}  // namespace dpnet::core
