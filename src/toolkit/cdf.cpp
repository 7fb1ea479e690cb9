#include "toolkit/cdf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/exec/executor.hpp"

namespace dpnet::toolkit {

namespace {

void require_boundaries(std::span<const std::int64_t> boundaries) {
  if (boundaries.empty()) {
    throw std::invalid_argument("cdf requires at least one boundary");
  }
  if (!std::is_sorted(boundaries.begin(), boundaries.end()) ||
      std::adjacent_find(boundaries.begin(), boundaries.end()) !=
          boundaries.end()) {
    throw std::invalid_argument("cdf boundaries must be strictly ascending");
  }
}

/// Index of the first boundary >= v, or boundaries.size() if beyond range.
std::size_t bucket_of(std::int64_t v,
                      std::span<const std::int64_t> boundaries) {
  const auto it = std::lower_bound(boundaries.begin(), boundaries.end(), v);
  return static_cast<std::size_t>(it - boundaries.begin());
}

}  // namespace

CdfEstimate cdf_prefix_counts(const core::Queryable<std::int64_t>& data,
                              std::span<const std::int64_t> boundaries,
                              double eps_total,
                              core::exec::ExecPolicy policy) {
  require_boundaries(boundaries);
  const double eps_query = eps_total / static_cast<double>(boundaries.size());
  CdfEstimate out;
  out.boundaries.assign(boundaries.begin(), boundaries.end());
  // Each boundary's where+count is an independent sub-query; build the
  // derived queryables up front (sequentially, so plan-node ids are
  // deterministic) and release the counts under the policy.
  std::vector<core::Queryable<std::int64_t>> prefixes;
  prefixes.reserve(boundaries.size());
  for (std::int64_t b : boundaries) {
    prefixes.push_back(data.where([b](std::int64_t v) { return v <= b; }));
  }
  std::vector<std::size_t> keys(boundaries.size());
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  out.values = core::exec::map_parts(
      policy, keys, prefixes,
      [eps_query](std::size_t, const core::Queryable<std::int64_t>& q) {
        return q.noisy_count(eps_query);
      });
  return out;
}

CdfEstimate cdf_partition(const core::Queryable<std::int64_t>& data,
                          std::span<const std::int64_t> boundaries,
                          double eps_total,
                          core::exec::ExecPolicy policy) {
  require_boundaries(boundaries);
  std::vector<std::size_t> keys(boundaries.size());
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  const std::vector<double> counts = data.noisy_counts(
      keys, [boundaries](std::int64_t v) { return bucket_of(v, boundaries); },
      eps_total, policy);

  CdfEstimate out;
  out.boundaries.assign(boundaries.begin(), boundaries.end());
  out.values.reserve(boundaries.size());
  double tally = 0.0;
  for (double count : counts) {
    tally += count;
    out.values.push_back(tally);
  }
  return out;
}

namespace {

/// Recursive multi-resolution measurement over bucket indices [0, size):
/// emits one estimated cumulative count per index, relative to the start
/// of this sub-range.  `size` is a power of two.
void cdf3_recurse(const core::Queryable<std::int64_t>& data, double eps,
                  std::int64_t size, std::vector<double>& out) {
  if (size == 1) {
    out.push_back(data.noisy_count(eps));
    return;
  }
  const std::int64_t half = size / 2;
  auto parts = data.partition(std::vector<int>{0, 1},
                              [half](std::int64_t v) {
                                return v < half ? 0 : 1;
                              });
  // Counts for [0, half) come from the recursion on the lower part.
  cdf3_recurse(parts.at(0), eps, half, out);
  // One cumulative count anchors the upper half...
  const double lower_total = parts.at(0).noisy_count(eps);
  // ...and the recursion on the (re-based) upper part fills it in.
  const std::size_t upper_start = out.size();
  auto rebased =
      parts.at(1).select([half](std::int64_t v) { return v - half; });
  cdf3_recurse(rebased, eps, half, out);
  for (std::size_t i = upper_start; i < out.size(); ++i) {
    out[i] += lower_total;
  }
}

}  // namespace

CdfEstimate cdf_recursive(const core::Queryable<std::int64_t>& data,
                          std::span<const std::int64_t> boundaries,
                          double eps_total) {
  require_boundaries(boundaries);
  const auto padded =
      std::bit_ceil(static_cast<std::uint64_t>(boundaries.size()));
  const int levels = std::countr_zero(padded) + 1;
  const double eps = eps_total / static_cast<double>(levels);

  // Work over bucket indices, padded up to a power of two; records beyond
  // the final boundary are dropped (they belong to no bucket) and the
  // padding buckets stay empty.
  auto indexed = data.where([boundaries](std::int64_t v) {
                       return v <= boundaries.back();
                     })
                     .select([boundaries](std::int64_t v) {
                       return static_cast<std::int64_t>(
                           bucket_of(v, boundaries));
                     });

  std::vector<double> cumulative;
  cumulative.reserve(padded);
  cdf3_recurse(indexed, eps, static_cast<std::int64_t>(padded), cumulative);

  CdfEstimate out;
  out.boundaries.assign(boundaries.begin(), boundaries.end());
  out.values.assign(cumulative.begin(),
                    cumulative.begin() +
                        static_cast<std::ptrdiff_t>(boundaries.size()));
  return out;
}

CdfEstimate exact_cdf(std::span<const std::int64_t> values,
                      std::span<const std::int64_t> boundaries) {
  require_boundaries(boundaries);
  std::vector<std::int64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  CdfEstimate out;
  out.boundaries.assign(boundaries.begin(), boundaries.end());
  out.values.reserve(boundaries.size());
  for (std::int64_t b : boundaries) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), b);
    out.values.push_back(static_cast<double>(it - sorted.begin()));
  }
  return out;
}

std::vector<std::int64_t> make_boundaries(std::int64_t lo, std::int64_t hi,
                                          std::int64_t step) {
  if (step <= 0 || hi < lo) {
    throw std::invalid_argument("make_boundaries requires step > 0, hi >= lo");
  }
  std::vector<std::int64_t> out;
  for (std::int64_t b = lo; b < hi + step; b += step) out.push_back(b);
  return out;
}

std::vector<double> isotonic_fit(std::span<const double> values) {
  // Pool-adjacent-violators: maintain blocks of (mean, weight); merge while
  // the last two blocks violate monotonicity.
  struct Block {
    double mean;
    double weight;
  };
  std::vector<Block> blocks;
  blocks.reserve(values.size());
  for (double v : values) {
    blocks.push_back({v, 1.0});
    while (blocks.size() >= 2 &&
           blocks[blocks.size() - 2].mean > blocks.back().mean) {
      const Block b = blocks.back();
      blocks.pop_back();
      Block& a = blocks.back();
      a.mean = (a.mean * a.weight + b.mean * b.weight) / (a.weight + b.weight);
      a.weight += b.weight;
    }
  }
  std::vector<double> out;
  out.reserve(values.size());
  for (const Block& b : blocks) {
    for (int i = 0; i < static_cast<int>(b.weight); ++i) {
      out.push_back(b.mean);
    }
  }
  return out;
}

}  // namespace dpnet::toolkit
