#include "core/budget.hpp"

#include <sstream>
#include <utility>

namespace dpnet::core {

namespace {

void require_nonnegative(double eps) {
  if (eps < 0.0) {
    throw InvalidEpsilonError("privacy charge must be non-negative");
  }
}

[[noreturn]] void throw_exhausted(double requested, double remaining) {
  std::ostringstream os;
  os << "privacy budget exhausted: requested " << requested << ", remaining "
     << remaining;
  throw BudgetExhaustedError(os.str());
}

}  // namespace

RootBudget::RootBudget(double total) : total_(total) {
  if (total < 0.0) {
    throw InvalidEpsilonError("budget total must be non-negative");
  }
}

bool RootBudget::can_charge(double eps) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return eps >= 0.0 && spent_ + eps <= total_ + kSlack;
}

void RootBudget::charge(double eps) {
  require_nonnegative(eps);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!(spent_ + eps <= total_ + kSlack)) {
    throw_exhausted(eps, total_ - spent_);
  }
  spent_ += eps;
}

bool RootBudget::try_charge(double eps) {
  require_nonnegative(eps);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!(spent_ + eps <= total_ + kSlack)) return false;
  spent_ += eps;
  return true;
}

double RootBudget::spent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spent_;
}

PartitionGroup::PartitionGroup(std::shared_ptr<PrivacyBudget> parent,
                               std::uint64_t node_id)
    : parent_(std::move(parent)), node_id_(node_id) {
  if (!parent_) throw InvalidQueryError("partition requires a parent budget");
}

bool PartitionGroup::can_raise_to(double child_total) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const double delta = child_total - max_child_;
  return delta <= 0.0 || parent_->can_charge(delta);
}

void PartitionGroup::raise_to(double child_total) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const double delta = child_total - max_child_;
  if (delta > 0.0) {
    const ScopedChargeNode charge_node(node_id_);
    parent_->charge(delta);
    max_child_ = child_total;
  }
}

bool PartitionGroup::try_raise_to(double child_total) {
  // Lock order is always child -> group -> parent (acyclic), so holding
  // the group mutex across the parent's try_charge cannot deadlock.
  const std::lock_guard<std::mutex> lock(mutex_);
  const double delta = child_total - max_child_;
  if (delta <= 0.0) return true;
  const ScopedChargeNode charge_node(node_id_);
  if (!parent_->try_charge(delta)) return false;
  max_child_ = child_total;
  return true;
}

double PartitionGroup::max_child() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_child_;
}

double PartitionGroup::parent_remaining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return parent_->remaining();
}

PartitionBudget::PartitionBudget(std::shared_ptr<PartitionGroup> group)
    : group_(std::move(group)) {
  if (!group_) throw InvalidQueryError("partition budget requires a group");
}

bool PartitionBudget::can_charge(double eps) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return eps >= 0.0 && group_->can_raise_to(spent_ + eps);
}

void PartitionBudget::charge(double eps) {
  require_nonnegative(eps);
  const std::lock_guard<std::mutex> lock(mutex_);
  group_->raise_to(spent_ + eps);
  spent_ += eps;
}

bool PartitionBudget::try_charge(double eps) {
  require_nonnegative(eps);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!group_->try_raise_to(spent_ + eps)) return false;
  spent_ += eps;
  return true;
}

double PartitionBudget::spent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spent_;
}

double PartitionBudget::remaining() const {
  // Max-cost rule: a part only charges the parent for the amount by
  // which it raises the max sibling total, so its headroom is the gap
  // up to that max plus the parent's own headroom.  Lock order
  // child -> group(/parent) matches every other path here.
  const std::lock_guard<std::mutex> lock(mutex_);
  const double gap = group_->max_child() - spent_;
  return (gap > 0.0 ? gap : 0.0) + group_->parent_remaining();
}

CappedBudget::CappedBudget(double cap, std::shared_ptr<PrivacyBudget> parent)
    : cap_(cap), parent_(std::move(parent)) {
  if (cap < 0.0) throw InvalidEpsilonError("budget cap must be non-negative");
  if (!parent_) throw InvalidQueryError("capped budget requires a parent");
}

bool CappedBudget::can_charge(double eps) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return eps >= 0.0 && spent_ + eps <= cap_ + kSlack &&
         parent_->can_charge(eps);
}

void CappedBudget::charge(double eps) {
  require_nonnegative(eps);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spent_ + eps > cap_ + kSlack) throw_exhausted(eps, cap_ - spent_);
  parent_->charge(eps);
  spent_ += eps;
}

bool CappedBudget::try_charge(double eps) {
  require_nonnegative(eps);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spent_ + eps > cap_ + kSlack) return false;
  if (!parent_->try_charge(eps)) return false;
  spent_ += eps;
  return true;
}

double CappedBudget::spent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spent_;
}

double CappedBudget::remaining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const double own = cap_ - spent_;
  const double parent = parent_->remaining();
  return own < parent ? own : parent;
}

BudgetLedger::BudgetLedger(double dataset_total)
    : root_(std::make_shared<RootBudget>(dataset_total)) {}

std::shared_ptr<PrivacyBudget> BudgetLedger::analyst(const std::string& name,
                                                     double cap) {
  auto it = analysts_.find(name);
  if (it != analysts_.end()) {
    if (it->second->cap() != cap) {
      throw InvalidQueryError("analyst '" + name +
                              "' already registered with a different cap");
    }
    return it->second;
  }
  auto budget = std::make_shared<CappedBudget>(cap, root_);
  analysts_.emplace(name, budget);
  return budget;
}

}  // namespace dpnet::core
