#include "toolkit/range_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace dpnet::toolkit {

DpRangeTree::DpRangeTree(const core::Queryable<std::int64_t>& values,
                         std::int64_t domain_size, double eps) {
  if (domain_size <= 0) {
    throw core::InvalidQueryError("range tree needs a positive domain");
  }
  padded_ = static_cast<std::int64_t>(
      std::bit_ceil(static_cast<std::uint64_t>(domain_size)));
  levels_ = std::countr_zero(static_cast<std::uint64_t>(padded_)) + 1;
  const double eps_level = eps / static_cast<double>(levels_);

  auto in_domain = values.where(
      [d = domain_size](std::int64_t v) { return v >= 0 && v < d; });
  // The builder's per-node noise: stability of `values` times 1/eps_level
  // (reported for the error analysis; stability is usually 1).
  node_scale_ = in_domain.total_stability() / eps_level;

  counts_.resize(static_cast<std::size_t>(levels_));
  for (int level = 0; level < levels_; ++level) {
    const std::int64_t width = padded_ >> level;
    const auto buckets = static_cast<std::int64_t>(1) << level;
    std::vector<std::int64_t> keys(static_cast<std::size_t>(buckets));
    for (std::int64_t b = 0; b < buckets; ++b) {
      keys[static_cast<std::size_t>(b)] = b;
    }
    counts_[static_cast<std::size_t>(level)] = in_domain.noisy_counts(
        keys, [width](std::int64_t v) { return v / width; }, eps_level);
  }
}

void DpRangeTree::decompose(
    std::int64_t lo, std::int64_t hi,
    std::vector<std::pair<int, std::int64_t>>& nodes) const {
  // Greedy canonical decomposition: take the largest aligned dyadic block
  // starting at lo that fits within [lo, hi).
  while (lo < hi) {
    std::int64_t width = padded_ >> (levels_ - 1);  // start at leaf width=1
    // Grow while alignment and fit allow.
    while (width * 2 <= hi - lo && lo % (width * 2) == 0 &&
           width * 2 <= padded_) {
      width *= 2;
    }
    // Shrink if the aligned block overshoots (can happen when lo is not
    // aligned to the fitting width).
    while (lo % width != 0 || lo + width > hi) width /= 2;
    const int level =
        levels_ - 1 -
        std::countr_zero(static_cast<std::uint64_t>(width));
    nodes.emplace_back(level, lo / width);
    lo += width;
  }
}

double DpRangeTree::range_count(std::int64_t lo, std::int64_t hi) const {
  if (lo < 0 || hi > padded_ || lo >= hi) {
    throw core::InvalidQueryError("range_count needs 0 <= lo < hi <= domain");
  }
  std::vector<std::pair<int, std::int64_t>> nodes;
  decompose(lo, hi, nodes);
  double total = 0.0;
  for (const auto& [level, index] : nodes) {
    total += counts_[static_cast<std::size_t>(level)]
                    [static_cast<std::size_t>(index)];
  }
  return total;
}

std::size_t DpRangeTree::decomposition_size(std::int64_t lo,
                                            std::int64_t hi) const {
  if (lo < 0 || hi > padded_ || lo >= hi) {
    throw core::InvalidQueryError("range needs 0 <= lo < hi <= domain");
  }
  std::vector<std::pair<int, std::int64_t>> nodes;
  decompose(lo, hi, nodes);
  return nodes.size();
}

double exact_range_count(const std::vector<std::int64_t>& values,
                         std::int64_t lo, std::int64_t hi) {
  return static_cast<double>(
      std::count_if(values.begin(), values.end(),
                    [lo, hi](std::int64_t v) { return v >= lo && v < hi; }));
}

}  // namespace dpnet::toolkit
