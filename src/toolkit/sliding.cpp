#include "toolkit/sliding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dpnet::toolkit {

namespace {

struct Grid {
  std::int64_t buckets_per_window;
  std::int64_t num_buckets;
  std::int64_t num_windows;
};

Grid validate(const SlidingWindowSpec& spec) {
  if (spec.window <= 0.0 || spec.step <= 0.0 || spec.t_end <= spec.t_start) {
    throw std::invalid_argument("sliding window spec must be positive");
  }
  const double ratio = spec.window / spec.step;
  const auto buckets_per_window = static_cast<std::int64_t>(
      std::llround(ratio));
  if (std::abs(ratio - static_cast<double>(buckets_per_window)) > 1e-9 ||
      buckets_per_window < 1) {
    throw std::invalid_argument("window must be a multiple of step");
  }
  if (spec.t_end - spec.t_start < spec.window) {
    throw std::invalid_argument("range shorter than one window");
  }
  const auto num_buckets = static_cast<std::int64_t>(
      std::ceil((spec.t_end - spec.t_start) / spec.step));
  const std::int64_t num_windows = num_buckets - buckets_per_window + 1;
  return Grid{buckets_per_window, num_buckets, num_windows};
}

SlidingCounts assemble(const SlidingWindowSpec& spec, const Grid& grid,
                       const std::vector<double>& bucket_counts) {
  SlidingCounts out;
  double rolling = 0.0;
  for (std::int64_t b = 0; b < grid.buckets_per_window; ++b) {
    rolling += bucket_counts[static_cast<std::size_t>(b)];
  }
  for (std::int64_t w = 0; w < grid.num_windows; ++w) {
    out.window_starts.push_back(spec.t_start +
                                static_cast<double>(w) * spec.step);
    out.counts.push_back(rolling);
    if (w + 1 < grid.num_windows) {
      rolling -= bucket_counts[static_cast<std::size_t>(w)];
      rolling +=
          bucket_counts[static_cast<std::size_t>(w +
                                                 grid.buckets_per_window)];
    }
  }
  return out;
}

}  // namespace

SlidingCounts sliding_counts(const core::Queryable<double>& times,
                             const SlidingWindowSpec& spec, double eps,
                             core::exec::ExecPolicy policy) {
  const Grid grid = validate(spec);
  std::vector<std::int64_t> keys(static_cast<std::size_t>(grid.num_buckets));
  for (std::int64_t b = 0; b < grid.num_buckets; ++b) {
    keys[static_cast<std::size_t>(b)] = b;
  }
  const double t_start = spec.t_start;
  const double step = spec.step;
  const std::vector<double> bucket_counts = times.noisy_counts(
      keys,
      [t_start, step](double t) {
        return static_cast<std::int64_t>(std::floor((t - t_start) / step));
      },
      eps, policy);
  return assemble(spec, grid, bucket_counts);
}

SlidingCounts sliding_counts_naive(const core::Queryable<double>& times,
                                   const SlidingWindowSpec& spec,
                                   double eps) {
  const Grid grid = validate(spec);
  const double eps_each = eps / static_cast<double>(grid.num_windows);
  SlidingCounts out;
  for (std::int64_t w = 0; w < grid.num_windows; ++w) {
    const double lo = spec.t_start + static_cast<double>(w) * spec.step;
    const double hi = lo + spec.window;
    out.window_starts.push_back(lo);
    out.counts.push_back(
        times.where([lo, hi](double t) { return t >= lo && t < hi; })
            .noisy_count(eps_each));
  }
  return out;
}

SlidingCounts exact_sliding_counts(const std::vector<double>& times,
                                   const SlidingWindowSpec& spec) {
  const Grid grid = validate(spec);
  std::vector<double> bucket_counts(
      static_cast<std::size_t>(grid.num_buckets), 0.0);
  for (double t : times) {
    const auto b = static_cast<std::int64_t>(
        std::floor((t - spec.t_start) / spec.step));
    if (b >= 0 && b < grid.num_buckets) {
      bucket_counts[static_cast<std::size_t>(b)] += 1.0;
    }
  }
  return assemble(spec, grid, bucket_counts);
}

}  // namespace dpnet::toolkit
