// Privacy-budget accounting.
//
// Every Queryable carries references to one or more PrivacyBudget
// accountants.  An aggregation at accuracy epsilon over a queryable of
// stability c charges c * epsilon.  Sequential composition makes charges
// additive; the Partition operation (PINQ's key cost-saving operator) makes
// the cost to the source the *maximum* over the resulting parts rather than
// their sum, which PartitionGroup/PartitionBudget implement below.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/errors.hpp"

namespace dpnet::core {

/// Abstract accountant.  Implementations must be monotone: `spent()` never
/// decreases and `charge(e)` increases it by exactly `e`.
///
/// Thread-safety contract: every implementation is internally
/// synchronized.  `try_charge` is the atomic check-and-commit primitive —
/// under concurrency the two-phase `can_charge` + `charge` pattern is
/// racy (another thread can consume the headroom between the calls), so
/// parallel release paths must use `try_charge` instead.
class PrivacyBudget {
 public:
  virtual ~PrivacyBudget() = default;

  /// True if an additional charge of `eps` would be admitted.
  [[nodiscard]] virtual bool can_charge(double eps) const = 0;

  /// Consumes `eps` from the budget; throws BudgetExhaustedError (leaving
  /// the budget unchanged) if the charge cannot be admitted.
  virtual void charge(double eps) = 0;

  /// Atomically checks and commits a charge of `eps`.  Returns false
  /// (leaving the budget unchanged) instead of throwing when the charge
  /// cannot be admitted.  Concurrent callers can never jointly overdraw.
  [[nodiscard]] virtual bool try_charge(double eps) = 0;

  /// Cumulative privacy cost charged so far to this accountant.
  [[nodiscard]] virtual double spent() const = 0;

  /// Headroom left before a charge would be refused.  Accountants with
  /// no fixed cap of their own report +infinity; feed the per-analyst
  /// budget.remaining.<label> gauge only when finite.
  [[nodiscard]] virtual double remaining() const {
    return std::numeric_limits<double>::infinity();
  }
};

namespace detail {
// Thread-local plan-node annotation for in-flight charges (0 = charge
// from outside the plan layer).  Read by AuditingBudget so ledger
// entries can be re-sorted into a schedule-independent canonical order.
inline thread_local std::uint64_t tls_charge_node = 0;
}  // namespace detail

/// Names the plan node whose release is charging for the current thread;
/// restores the previous annotation on destruction (scopes nest).
class ScopedChargeNode {
 public:
  explicit ScopedChargeNode(std::uint64_t node_id)
      : previous_(detail::tls_charge_node) {
    detail::tls_charge_node = node_id;
  }
  ~ScopedChargeNode() { detail::tls_charge_node = previous_; }

  ScopedChargeNode(const ScopedChargeNode&) = delete;
  ScopedChargeNode& operator=(const ScopedChargeNode&) = delete;

  [[nodiscard]] static std::uint64_t current() {
    return detail::tls_charge_node;
  }

 private:
  std::uint64_t previous_;
};

/// Top-level budget for a dataset: a fixed total that charges draw down.
/// Charges are atomic: concurrent analyst threads serialize on an
/// internal mutex and can never jointly overdraw the total.
class RootBudget final : public PrivacyBudget {
 public:
  explicit RootBudget(double total);

  [[nodiscard]] bool can_charge(double eps) const override;
  void charge(double eps) override;
  [[nodiscard]] bool try_charge(double eps) override;
  [[nodiscard]] double spent() const override;

  [[nodiscard]] double total() const { return total_; }
  [[nodiscard]] double remaining() const override { return total_ - spent(); }

 private:
  // Tolerance so that exactly-exhausting sequences of floating-point
  // charges (e.g. ten charges of total/10) are admitted.
  static constexpr double kSlack = 1e-9;

  mutable std::mutex mutex_;
  double total_;
  double spent_ = 0.0;
};

/// Shared state between the sibling parts of one Partition operation.
/// The parent is charged only the amount by which the maximum child total
/// grows, so the parent's cost equals max over children, per PINQ.
///
/// Those parent charges run under a ScopedChargeNode naming `node_id`,
/// the plan node the partition was taken of.  Which part raises the max
/// first depends on the thread schedule, so stamping the raise with the
/// part's own node would make the canonical ledger schedule-dependent.
class PartitionGroup {
 public:
  explicit PartitionGroup(std::shared_ptr<PrivacyBudget> parent,
                          std::uint64_t node_id = 0);

  [[nodiscard]] bool can_raise_to(double child_total) const;
  void raise_to(double child_total);
  [[nodiscard]] bool try_raise_to(double child_total);
  [[nodiscard]] double max_child() const;
  /// Headroom the parent still has beyond the current max child total.
  [[nodiscard]] double parent_remaining() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<PrivacyBudget> parent_;
  std::uint64_t node_id_;
  double max_child_ = 0.0;
};

/// Accountant handed to each part of a Partition.
class PartitionBudget final : public PrivacyBudget {
 public:
  explicit PartitionBudget(std::shared_ptr<PartitionGroup> group);

  [[nodiscard]] bool can_charge(double eps) const override;
  void charge(double eps) override;
  [[nodiscard]] bool try_charge(double eps) override;
  [[nodiscard]] double spent() const override;
  /// Max-cost rule headroom: this part can still spend up to the gap to
  /// the current max sibling plus whatever the parent has left.
  [[nodiscard]] double remaining() const override;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<PartitionGroup> group_;
  double spent_ = 0.0;
};

/// A budget capped at `cap` that also forwards every charge to a parent.
/// Used for per-analyst policies: each analyst gets a cap, and all analysts
/// together cannot exceed the dataset budget.
class CappedBudget final : public PrivacyBudget {
 public:
  CappedBudget(double cap, std::shared_ptr<PrivacyBudget> parent);

  [[nodiscard]] bool can_charge(double eps) const override;
  void charge(double eps) override;
  [[nodiscard]] bool try_charge(double eps) override;
  [[nodiscard]] double spent() const override;
  /// min(own cap headroom, parent headroom): what this analyst can
  /// still spend, however the rest of the ledger has drawn down.
  [[nodiscard]] double remaining() const override;
  [[nodiscard]] double cap() const { return cap_; }

 private:
  static constexpr double kSlack = 1e-9;

  mutable std::mutex mutex_;
  double cap_;
  std::shared_ptr<PrivacyBudget> parent_;
  double spent_ = 0.0;
};

/// Policy layer from the paper's §7 discussion: a dataset-wide budget with
/// named per-analyst sub-budgets, each individually capped.
class BudgetLedger {
 public:
  explicit BudgetLedger(double dataset_total);

  /// Returns (creating on first use) the accountant for `analyst`, capped
  /// at `cap`.  A repeat call with a different cap throws InvalidQueryError.
  [[nodiscard]] std::shared_ptr<PrivacyBudget> analyst(const std::string& name,
                                                       double cap);

  [[nodiscard]] double dataset_spent() const { return root_->spent(); }
  [[nodiscard]] double dataset_remaining() const { return root_->remaining(); }

 private:
  std::shared_ptr<RootBudget> root_;
  std::unordered_map<std::string, std::shared_ptr<CappedBudget>> analysts_;
};

}  // namespace dpnet::core
