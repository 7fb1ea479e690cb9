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
// build plan nodes lazily; nothing runs until an aggregation or
// Partition demands it.  Narrow operators (where/select/select_many) run
// fused inside the one pass of the operator consuming them, copying no
// row; wide operators store their output, and a narrow node demanded a
// second time stores its rows, so a shared sub-query runs at most twice
// — even when core::exec workers race to demand it.
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
// refusals.  A node contributes its operator span only on its first
// evaluation; later aggregations over the same node record just the
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
#include "core/release.hpp"
#include "core/trace.hpp"

namespace dpnet::core {

namespace detail {

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

/// Dense index of an analyst's key list: find(k) is i when k is keys[i]
/// and grouping::kNoSlot when k is not listed.  A list of consecutive
/// ascending integers (a bucket, link or window range, a byte alphabet)
/// resolves by subtraction; every other list goes through a GroupTable.
template <typename K>
class KeyIndex {
 public:
  /// Throws InvalidQueryError("<op> keys must be distinct") on a
  /// repeated key.
  KeyIndex(const std::vector<K>& keys, const char* op) {
    if constexpr (std::is_integral_v<K>) {
      if (!keys.empty() && consecutive(keys)) {
        run_ = keys.size();
        base_ = keys.front();
        return;
      }
    }
    table_.reserve(keys.size());
    for (const auto& k : keys) {
      if (!table_.acquire(k).second) {
        throw InvalidQueryError(std::string(op) + " keys must be distinct");
      }
    }
  }

  [[nodiscard]] std::uint32_t find(const K& k) const {
    if constexpr (std::is_integral_v<K>) {
      if (run_ != 0) {
        // k - base in 64-bit unsigned arithmetic: a key below the base
        // wraps far above the run, and nothing can overflow.
        const std::uint64_t offset = static_cast<std::uint64_t>(k) -
                                     static_cast<std::uint64_t>(base_);
        return offset < run_ ? static_cast<std::uint32_t>(offset)
                             : grouping::kNoSlot;
      }
    }
    return table_.find(k);
  }

 private:
  /// True when keys[i] is keys[0] + i for every i.
  static bool consecutive(const std::vector<K>& keys) {
    for (std::size_t i = 1; i < keys.size(); ++i) {
      if (!(keys[i - 1] < keys[i]) ||
          static_cast<std::uint64_t>(keys[i]) -
                  static_cast<std::uint64_t>(keys[i - 1]) !=
              1) {
        return false;
      }
    }
    return true;
  }

  grouping::GroupTable<K> table_;
  std::uint64_t run_ = 0;  // key count when the keys are one run, else 0
  K base_{};
};

}  // namespace detail

template <typename T>
class Queryable {
 public:
  using value_type = T;

  /// Wraps `data` as a protected dataset governed by `budget`.
  Queryable(std::vector<T> data, std::shared_ptr<PrivacyBudget> budget,
            std::shared_ptr<NoiseSource> noise)
      : Queryable(std::make_shared<const std::vector<T>>(std::move(data)),
                  std::move(budget), std::move(noise)) {}

  /// Wraps a shared, immutable dataset: every Queryable built over the
  /// same `data` reads the one copy in place (the server gives each
  /// analyst session its own budget and noise over one trace this way).
  /// A template, so a braced row list such as `{0, 1}` (whose 0 would
  /// convert to a null shared_ptr) still picks the vector constructor.
  template <typename Shared>
    requires std::is_convertible_v<Shared,
                                   std::shared_ptr<const std::vector<T>>>
  Queryable(Shared data, std::shared_ptr<PrivacyBudget> budget,
            std::shared_ptr<NoiseSource> noise)
      : charges_{{std::move(budget), 1.0}}, noise_(std::move(noise)) {
    std::shared_ptr<const std::vector<T>> rows(std::move(data));
    if (!rows) throw InvalidQueryError("queryable requires a dataset");
    if (!charges_.front().budget) {
      throw InvalidQueryError("queryable requires a budget");
    }
    if (!noise_) throw InvalidQueryError("queryable requires a noise source");
    stream_ = noise_->stream_base();
    node_ = std::make_shared<plan::Node<T>>(mix64(plan::kRootSalt, stream_),
                                            "source", std::move(rows));
  }

  /// A protected dataset read from a stream instead of memory (a trace
  /// generator, a DPNT reader): `generate(sink)` pushes every record into
  /// `sink` (a plan::SourceSink<T>&) and runs again on every demand, so
  /// the records are never stored and a dataset larger than memory can
  /// be queried — a noisy_counts() over it keeps O(keys) memory.
  /// Concurrent demands run `generate` one at a time.  Rows must be
  /// default-constructible (the sink buffers them).  Operators that need
  /// stored rows (data_unsafe(), the parallel group_by, join's build
  /// side) refuse it with InvalidQueryError.
  template <typename GenerateF>
    requires std::is_default_constructible_v<T>
  [[nodiscard]] static Queryable<T> streamed(
      GenerateF generate, std::shared_ptr<PrivacyBudget> budget,
      std::shared_ptr<NoiseSource> noise) {
    if (!budget) throw InvalidQueryError("queryable requires a budget");
    if (!noise) throw InvalidQueryError("queryable requires a noise source");
    const std::uint64_t stream = noise->stream_base();
    auto node = std::make_shared<plan::Node<T>>(
        mix64(plan::kRootSalt, stream), "stream",
        typename plan::Node<T>::Generate(std::move(generate)));
    return Queryable<T>(std::move(node), {{std::move(budget), 1.0}},
                        std::move(noise), stream);
  }

  // ---------------------------------------------------------------------
  // Transformations
  // ---------------------------------------------------------------------
  // where/select/select_many are narrow: they run fused inside the pass
  // of whatever consumes them (plan.hpp).  The rest are wide and store
  // their output rows.

  /// Keeps records satisfying `pred`.  No stability change.
  template <typename Pred>
  [[nodiscard]] Queryable<T> where(Pred pred) const {
    return narrow<T>(
        "where", 1.0,
        [parent = node_, pred](plan::NodeId id, plan::RowSink<T> out) {
          return parent->scan([&](const T& x) {
            if (contain_analyst("where", id, [&] { return pred(x); })) {
              out(x);
            }
          });
        },
        charges_);
  }

  /// Maps each record through `f`.  No stability change.
  template <typename F>
  [[nodiscard]] auto select(F f) const
      -> Queryable<std::decay_t<std::invoke_result_t<F, const T&>>> {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    return narrow<U>(
        "select", 1.0,
        [parent = node_, f](plan::NodeId id, plan::RowSink<U> out) {
          return parent->scan([&](const T& x) {
            out(contain_analyst("select", id, [&]() -> U { return f(x); }));
          });
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
    return narrow<U>(
        "select_many", static_cast<double>(max_fanout),
        [parent = node_, f, max_fanout](plan::NodeId id,
                                        plan::RowSink<U> out) {
          return parent->scan([&](const T& x) {
            const Container produced = contain_analyst(
                "select_many", id, [&]() -> Container { return f(x); });
            std::size_t taken = 0;
            for (const auto& item : produced) {
              if (taken++ == max_fanout) break;
              out(item);
            }
          });
        },
        detail::scale_charges(charges_, static_cast<double>(max_fanout)));
  }

  /// Removes duplicate records (first occurrence kept).  Requires
  /// std::hash<T> and operator==.  No stability change.
  [[nodiscard]] Queryable<T> distinct() const {
    return wide<T>(
        "distinct", 1.0,
        [parent = node_](std::size_t& input_rows) {
          std::vector<T> out;
          grouping::GroupTable<T> seen;
          input_rows = parent->scan([&](const T& x) {
            if (seen.acquire(x).second) out.push_back(x);
          });
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
    return wide<Group<K, T>>(
        "group_by", 2.0,
        [parent = node_, key](std::size_t& input_rows) {
          grouping::GroupBuilder<K, T> builder;
          if (const auto* held = parent->held_rows()) {
            // Stored input: the block scan prefetches each key's bucket.
            builder.add_rows(*held, key);
            input_rows = held->size();
          } else {
            input_rows =
                parent->scan([&](const T& x) { builder.add(key(x), x); });
          }
          return builder.take();
        },
        detail::scale_charges(charges_, 2.0));
  }

  /// group_by under an executor policy: identical accounting, plan-node
  /// id, and output to the sequential overload — the radix-partitioned
  /// two-phase merge (core/exec/group_aggregate.hpp) reproduces the
  /// sequential insertion order exactly at any thread count.  Its chunks
  /// index the input, so a narrow input stores its rows.
  template <typename KeyF>
  [[nodiscard]] auto group_by(KeyF key, exec::ExecPolicy policy) const {
    using K = std::decay_t<std::invoke_result_t<KeyF, const T&>>;
    return wide<Group<K, T>>(
        "group_by", 2.0,
        [parent = node_, key, policy](std::size_t& input_rows) {
          const std::vector<T>& rows = parent->rows();
          input_rows = rows.size();
          return exec::parallel_group_by(policy, rows, key);
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
    return wide<Group<K, T>>(
        "group_by_spans", 3.0,
        [parent = node_, key, starts_new_span](std::size_t& input_rows) {
          // Same GroupBuilder as group_by; only the span rule differs.
          grouping::GroupBuilder<K, T> builder;
          input_rows = parent->scan([&](const T& x) {
            builder.add_span(key(x), x, [&] { return starts_new_span(x); });
          });
          return builder.take();
        },
        detail::scale_charges(charges_, 3.0));
  }

  /// PINQ's bounded-sensitivity Join: both inputs are grouped by their join
  /// key and matching groups are zipped element-wise, so one input record
  /// influences at most one output record.  Both inputs' budgets are
  /// charged by subsequent aggregations.  The build side (`other`) keeps
  /// pointers into its rows, so a narrow `other` stores them; this side
  /// streams.
  template <typename U, typename KF1, typename KF2, typename RF>
  [[nodiscard]] auto join(const Queryable<U>& other, KF1 outer_key,
                          KF2 inner_key, RF result) const {
    using K = std::decay_t<std::invoke_result_t<KF1, const T&>>;
    using K2 = std::decay_t<std::invoke_result_t<KF2, const U&>>;
    static_assert(std::is_same_v<K, K2>,
                  "join key selectors must produce the same key type");
    using R = std::decay_t<std::invoke_result_t<RF, const T&, const U&>>;
    return wide<R>(
        "join", 1.0,
        [left = node_, right = other.node_, outer_key, inner_key,
         result](std::size_t& input_rows) {
          grouping::GroupTable<K> by_key;
          std::vector<std::vector<const U*>> matches;
          const std::vector<U>& build = right->rows();
          for (const auto& y : build) {
            const auto [slot, inserted] = by_key.acquire(inner_key(y));
            if (inserted) matches.emplace_back();
            matches[slot].push_back(&y);
          }
          std::vector<std::size_t> used(matches.size(), 0);
          std::vector<R> out;
          input_rows = build.size() + left->scan([&](const T& x) {
            const std::uint32_t slot = by_key.find(outer_key(x));
            if (slot == grouping::kNoSlot) return;
            std::size_t& u = used[slot];
            if (u >= matches[slot].size()) return;  // group exhausted
            out.push_back(result(x, *matches[slot][u]));
            ++u;
          });
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Appends `other`.  Each input's stability is preserved; a record
  /// reaching the output through both inputs pays for both paths.
  [[nodiscard]] Queryable<T> concat(const Queryable<T>& other) const {
    return wide<T>(
        "concat", 1.0,
        [left = node_, right = other.node_](std::size_t& input_rows) {
          std::vector<T> out;
          const auto append = [&out](const T& x) { out.push_back(x); };
          input_rows = left->scan(append);
          input_rows += right->scan(append);
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Set union of the distinct records of both inputs (left-then-right
  /// first-occurrence order).  Like Concat, each input's stability is
  /// preserved and both are charged.
  [[nodiscard]] Queryable<T> set_union(const Queryable<T>& other) const {
    return wide<T>(
        "set_union", 1.0,
        [left = node_, right = other.node_](std::size_t& input_rows) {
          grouping::GroupTable<T> emitted;
          std::vector<T> out;
          const auto emit = [&](const T& x) {
            if (emitted.acquire(x).second) out.push_back(x);
          };
          input_rows = left->scan(emit);
          input_rows += right->scan(emit);
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Set difference: distinct records of this input absent from `other`.
  [[nodiscard]] Queryable<T> except(const Queryable<T>& other) const {
    return wide<T>(
        "except", 1.0,
        [left = node_, right = other.node_](std::size_t& input_rows) {
          grouping::GroupTable<T> removed;
          input_rows = right->scan([&](const T& y) { removed.acquire(y); });
          grouping::GroupTable<T> emitted;
          std::vector<T> out;
          input_rows += left->scan([&](const T& x) {
            if (!removed.contains(x) && emitted.acquire(x).second) {
              out.push_back(x);
            }
          });
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Set intersection of the distinct records of both inputs.
  [[nodiscard]] Queryable<T> intersect(const Queryable<T>& other) const {
    return wide<T>(
        "intersect", 1.0,
        [left = node_, right = other.node_](std::size_t& input_rows) {
          grouping::GroupTable<T> in_right;
          input_rows = right->scan([&](const T& y) { in_right.acquire(y); });
          grouping::GroupTable<T> emitted;
          std::vector<T> out;
          input_rows += left->scan([&](const T& x) {
            if (in_right.contains(x) && emitted.acquire(x).second) {
              out.push_back(x);
            }
          });
          return out;
        },
        detail::merge_charges(charges_, other.charges_), other.node_);
  }

  /// Splits the dataset into one protected part per key in `keys`.
  /// Records whose key is not listed are dropped (PINQ semantics).  The
  /// cumulative privacy cost to this queryable is the *maximum* over the
  /// parts, not the sum — the paper's central cost-saving device.  When
  /// each part would only release one count, noisy_counts() is the same
  /// release in one pass.
  ///
  /// Parts are created in `keys` order, so their plan-node ids (and hence
  /// their noise streams and trace tags) do not depend on the key type's
  /// hash order.  Independent parts can be aggregated concurrently via
  /// core::exec.  Each kept record is copied once, into its part, in row
  /// order.  Sequentially that is one in-order pass.  Under a parallel
  /// `policy`, stored input rows of a default-constructible type are
  /// classified in contiguous chunks (`key` is then called concurrently,
  /// once per row) and each part is allocated at its exact size; an
  /// unevaluated narrow chain still streams through one in-order pass.
  template <typename K, typename KeyF>
  [[nodiscard]] std::unordered_map<K, Queryable<T>> partition(
      const std::vector<K>& keys, KeyF key,
      exec::ExecPolicy policy = {}) const {
    const detail::KeyIndex key_index(keys, "partition");
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
    // key_index slot i corresponds to keys[i], so the buckets are a dense
    // vector in `keys` order.
    std::size_t input_rows = 0;
    std::vector<std::vector<T>> buckets =
        contain_analyst("partition", node_->id(), [&] {
          const auto slot_of = [&](const T& x) {
            return key_index.find(key(x));
          };
          if constexpr (std::is_default_constructible_v<T>) {
            const auto* rows =
                policy.threads > 1 ? node_->rows_in_place() : nullptr;
            if (rows != nullptr) {
              input_rows = rows->size();
              return exec::parallel_buckets(policy, *rows, keys.size(),
                                            slot_of);
            }
          }
          std::vector<std::vector<T>> streamed(keys.size());
          input_rows = node_->scan([&](const T& x) {
            const std::uint32_t slot = slot_of(x);
            if (slot != grouping::kNoSlot) streamed[slot].push_back(x);
          });
          return streamed;
        });
    scope.set_stability(total_stability());
    scope.set_rows(static_cast<std::int64_t>(input_rows),
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
          node_->next_child_id(), "partition_part",
          std::make_shared<const std::vector<T>>(std::move(buckets[i])));
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

  /// Noisy count per key: value i is the number of records whose
  /// `key(record)` is keys[i], plus Laplace(stability / eps) noise
  /// (records whose key is not listed are dropped).  The keys split the
  /// records into disjoint cells, so the whole histogram costs one eps.
  /// It is partition(keys, key) followed by one noisy_count(eps) per
  /// part, in one pass: the same values and the same canonical ledger
  /// (one charge of stability * eps per upstream budget, stamped with
  /// this node's id), because cell i draws from the seed part i's node
  /// would have had (this node's next child id in `keys` order, release
  /// ordinal 0).  No row is copied: the tally streams the node's chain,
  /// or counts stored input rows in contiguous chunks under `policy`
  /// (`key` is then called concurrently, once per row), and the cells
  /// are drawn in chunks under `policy` too.  The trace shows
  /// one span with keys.size() outputs instead of a partition span plus
  /// one span per part, and a refusal is one event, not one per part.
  /// An empty key list releases nothing and charges nothing.
  template <typename K, typename KeyF>
  [[nodiscard]] std::vector<double> noisy_counts(
      const std::vector<K>& keys, KeyF key, double eps,
      exec::ExecPolicy policy = {}) const {
    detail::check_epsilon(eps);
    const detail::KeyIndex index(keys, "noisy_counts");
    std::vector<double> out(keys.size());
    release_cells(
        keys.size(), keys.size(),
        [&](const T& x) { return index.find(key(x)); },
        [](const std::vector<plan::NodeId>& ids, std::size_t c) {
          return ids[c];
        },
        [&out](std::size_t c, double value) { out[c] = value; }, eps,
        policy);
    return out;
  }

  /// The grid form: row o is the histogram over `inner_keys` of the
  /// records whose `outer_key` is outer_keys[o], each cell plus
  /// Laplace(stability / eps) noise.  It is partition(outer_keys,
  /// outer_key) followed by noisy_counts(inner_keys, inner_key, eps) on
  /// every part, in one pass: cell (o, i) draws from the seed child i of
  /// part o's node would have had, so the values, the canonical ledger
  /// (one charge per upstream budget for the whole grid: the parts
  /// release one histogram each, and partition charges their maximum)
  /// and this node's later child ids are unchanged.  `inner_key` runs
  /// only on records whose outer key is listed.  The tally and the draws
  /// run in chunks under `policy`.  One span with K1 * K2 outputs
  /// replaces a partition span plus one span per part, and a refusal is
  /// journaled once.  An empty list releases nothing and charges nothing,
  /// but still takes the K1 part ids.
  template <typename K1, typename OuterF, typename K2, typename InnerF>
  [[nodiscard]] std::vector<std::vector<double>> noisy_counts(
      const std::vector<K1>& outer_keys, OuterF outer_key,
      const std::vector<K2>& inner_keys, InnerF inner_key, double eps,
      exec::ExecPolicy policy = {}) const {
    detail::check_epsilon(eps);
    const detail::KeyIndex outer(outer_keys, "noisy_counts");
    const detail::KeyIndex inner(inner_keys, "noisy_counts");
    const std::size_t width = inner_keys.size();
    if (width != 0 && outer_keys.size() >= grouping::kNoSlot / width) {
      throw InvalidQueryError("noisy_counts grid has too many cells");
    }
    std::vector<std::vector<double>> rows(outer_keys.size(),
                                          std::vector<double>(width));
    release_cells(
        outer_keys.size() * width, outer_keys.size(),
        [&](const T& x) {
          const std::uint32_t o = outer.find(outer_key(x));
          if (o == grouping::kNoSlot) return o;
          const std::uint32_t i = inner.find(inner_key(x));
          return i == grouping::kNoSlot
                     ? i
                     : static_cast<std::uint32_t>(o * width + i);
        },
        [width](const std::vector<plan::NodeId>& parts, std::size_t c) {
          return plan::child_id(parts[c / width], c % width);
        },
        [&rows, width](std::size_t c, double value) {
          rows[c / width][c % width] = value;
        },
        eps, policy);
    return rows;
  }

  /// Noisy record count: true count + Laplace(stability / eps).
  [[nodiscard]] double noisy_count(double eps) const {
    detail::check_epsilon(eps);
    TraceScope scope("noisy_count");
    const auto start = std::chrono::steady_clock::now();
    const std::size_t n = node_->count();
    NoiseSource local(node_->next_release_seed(stream_));
    commit_release(scope, charges_,
                   {"noisy_count", "laplace", eps, node_->id(), n, 1}, start,
                   trace_tag_);
    return static_cast<double>(n) + local.laplace(total_stability() / eps);
  }

  /// Integer-valued noisy count using the geometric mechanism.
  [[nodiscard]] std::int64_t noisy_count_geometric(double eps) const {
    detail::check_epsilon(eps);
    TraceScope scope("noisy_count_geometric");
    const auto start = std::chrono::steady_clock::now();
    const std::size_t n = node_->count();
    NoiseSource local(node_->next_release_seed(stream_));
    commit_release(
        scope, charges_,
        {"noisy_count_geometric", "geometric", eps, node_->id(), n, 1}, start,
        trace_tag_);
    return geometric_mechanism(static_cast<std::int64_t>(n),
                               total_stability(), eps, local);
  }

  /// Noisy sum of `f(record)` with each term clamped to [-1, 1].
  template <typename F>
  [[nodiscard]] double noisy_sum(double eps, F f) const {
    detail::check_epsilon(eps);
    TraceScope scope("noisy_sum");
    const auto start = std::chrono::steady_clock::now();
    std::size_t n = 0;
    const double sum = contain_analyst("noisy_sum", node_->id(), [&] {
      double s = 0.0;
      n = node_->scan([&](const T& x) { s += clamp_unit(f(x)); });
      return s;
    });
    NoiseSource local(node_->next_release_seed(stream_));
    commit_release(scope, charges_,
                   {"noisy_sum", "laplace", eps, node_->id(), n, 1}, start,
                   trace_tag_);
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
    std::size_t rows = 0;
    const double sum = contain_analyst("noisy_average", node_->id(), [&] {
      double s = 0.0;
      rows = node_->scan([&](const T& x) { s += clamp_unit(f(x)); });
      return s;
    });
    const double n = std::max<double>(1.0, static_cast<double>(rows));
    NoiseSource local(node_->next_release_seed(stream_));
    commit_release(scope, charges_,
                   {"noisy_average", "laplace", eps, node_->id(), rows, 1},
                   start, trace_tag_);
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
          if (const auto* held = node_->held_rows()) vs.reserve(held->size());
          node_->scan([&](const T& x) { vs.push_back(f(x)); });
          return vs;
        });
    NoiseSource local(node_->next_release_seed(stream_));
    commit_release(scope, charges_,
                   {"noisy_quantile", "exponential", eps, node_->id(),
                    values.size(), 1},
                   start, trace_tag_);
    return exponential_quantile(std::move(values), q,
                                eps / total_stability(), local);
  }

  // ---------------------------------------------------------------------
  // Trusted-side accessors
  // ---------------------------------------------------------------------
  // These bypass the privacy curtain.  They exist for the data owner's
  // side only: ground-truth baselines, tests, and experiment evaluation.
  // Nothing in the analyst-facing pipeline may call them.  Both store the
  // node's rows.

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
    return detail::total_stability(charges_);
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

  /// The histogram release behind both noisy_counts forms.  Tallies the
  /// node's rows into `cells` cells (slot_of(row) is a row's cell, or
  /// grouping::kNoSlot to drop it); then takes `children` child ids of
  /// this node, after the tally as partition takes its parts' ids after
  /// bucketing; then commits one release; then draws cell c from release
  /// ordinal 0 of node cell_node(ids, c) and hands it to put(c, value).
  /// The caller sizes what `put` writes before the call: after the
  /// charge only the chunked draws allocate, and they fall back to
  /// drawing inline.  With no cells it only takes the ids.
  template <typename SlotF, typename CellNodeF, typename PutF>
  void release_cells(std::size_t cells, std::size_t children,
                     const SlotF& slot_of, const CellNodeF& cell_node,
                     const PutF& put, double eps,
                     const exec::ExecPolicy& policy) const {
    std::vector<plan::NodeId> ids(children);
    if (cells == 0) {
      for (auto& id : ids) id = node_->next_child_id();
      return;
    }
    TraceScope scope("noisy_counts");
    const auto start = std::chrono::steady_clock::now();
    guard_checkpoint("noisy_counts", node_->id());
    std::size_t input_rows = 0;
    const std::vector<std::uint64_t> tally =
        contain_analyst("noisy_counts", node_->id(), [&] {
          if (const auto* rows = node_->rows_in_place()) {
            input_rows = rows->size();
            return exec::parallel_tally(policy, *rows, cells, slot_of);
          }
          std::vector<std::uint64_t> counts(cells, 0);
          input_rows = node_->scan([&](const T& x) {
            const std::uint32_t slot = slot_of(x);
            if (slot != grouping::kNoSlot) ++counts[slot];
          });
          return counts;
        });
    for (auto& id : ids) id = node_->next_child_id();
    const double scale = total_stability() / eps;
    commit_release(scope, charges_,
                   {"noisy_counts", "laplace", eps, node_->id(), input_rows,
                    cells},
                   start, trace_tag_);
    // Every cell seeds its own generator, so the draws run in chunks
    // too.  They follow the charge, where nothing may fail: their tasks
    // answer to a guard of their own that never trips, and when the
    // executor throws (a thread that cannot start, a failpoint) the
    // cells are drawn again inline, to the same values, since each
    // depends only on its seed.
    constexpr std::size_t kDrawsPerTask = 4096;
    const auto draw = [&](std::size_t c) {
      NoiseSource cell(plan::release_seed(stream_, cell_node(ids, c), 0));
      put(c, static_cast<double>(tally[c]) + cell.laplace(scale));
    };
    try {
      exec::parallel_for(
          exec::ExecPolicy(policy.threads, std::make_shared<QueryGuard>()),
          cells, kDrawsPerTask, draw);
    } catch (...) {
      for (std::size_t c = 0; c < cells; ++c) draw(c);
    }
  }

  /// Builds a narrow plan node over this one; `stream` pushes its output
  /// rows into a sink (plan.hpp).
  template <typename U, typename StreamF>
  [[nodiscard]] Queryable<U> narrow(const char* op, double op_stability,
                                    StreamF stream,
                                    detail::ChargeList charges) const {
    auto node = std::make_shared<plan::Node<U>>(
        node_->next_child_id(), op, op_stability,
        typename plan::Node<U>::Stream(std::move(stream)),
        std::vector<std::weak_ptr<const plan::NodeBase>>{node_});
    return Queryable<U>(std::move(node), std::move(charges), noise_, stream_,
                        trace_tag_);
  }

  /// Builds a wide plan node over this one (and `other_input`, for binary
  /// operators); `compute` builds its rows and reports its input count.
  /// The node id chains off this node's id and per-parent child ordinal
  /// (plan.hpp).
  template <typename U, typename ComputeF>
  [[nodiscard]] Queryable<U> wide(
      const char* op, double op_stability, ComputeF compute,
      detail::ChargeList charges,
      std::shared_ptr<const plan::NodeBase> other_input = nullptr) const {
    std::vector<std::weak_ptr<const plan::NodeBase>> inputs;
    inputs.push_back(node_);
    if (other_input) inputs.push_back(std::move(other_input));
    auto node = std::make_shared<plan::Node<U>>(
        node_->next_child_id(), op, op_stability,
        typename plan::Node<U>::Compute(std::move(compute)),
        std::move(inputs));
    return Queryable<U>(std::move(node), std::move(charges), noise_, stream_,
                        trace_tag_);
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
