#include "analysis/topology.hpp"

#include "core/exec/executor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace dpnet::analysis {

using core::Group;
using net::ScatterRecord;

namespace {

// Random-initialization range: plausible hop counts, shared by the private
// run and the noise-free reference (the paper initializes every privacy
// level from the same random vectors).
constexpr double kInitLo = 4.0;
constexpr double kInitHi = 30.0;

std::vector<int> iota_keys(int n) {
  std::vector<int> keys(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) keys[static_cast<std::size_t>(i)] = i;
  return keys;
}

/// Average the observed hop readings per monitor inside one IP's group;
/// fall back to `fill` for monitors with no reading.
std::vector<double> vector_of_group(
    const Group<std::uint32_t, ScatterRecord>& grp,
    const std::vector<double>& fill) {
  std::vector<double> sums(fill.size(), 0.0);
  std::vector<double> counts(fill.size(), 0.0);
  for (const ScatterRecord& r : grp.items) {
    const auto m = static_cast<std::size_t>(r.monitor);
    if (m >= fill.size()) continue;
    sums[m] += static_cast<double>(r.hops);
    counts[m] += 1.0;
  }
  std::vector<double> out(fill.size());
  for (std::size_t m = 0; m < fill.size(); ++m) {
    out[m] = counts[m] > 0.0 ? sums[m] / counts[m] : fill[m];
  }
  return out;
}

}  // namespace

std::vector<double> dp_monitor_averages(
    const core::Queryable<ScatterRecord>& records,
    const TopologyOptions& options) {
  if (options.monitors <= 0) {
    throw std::invalid_argument("topology options require monitor count");
  }
  if (!(options.eps_averages > 0.0)) {
    throw std::invalid_argument(
        "topology options require an explicit eps_averages > 0");
  }
  const auto keys = iota_keys(options.monitors);
  auto parts = records.partition(
      keys, [](const ScatterRecord& r) { return r.monitor; }, options.exec);
  const double eps = options.eps_averages;
  const double magnitude = options.hop_magnitude;
  return core::exec::map_parts(
      options.exec, keys, parts,
      [eps, magnitude](int, const core::Queryable<ScatterRecord>& part) {
        return std::clamp(part.noisy_average_scaled(
                              eps,
                              [](const ScatterRecord& r) {
                                return static_cast<double>(r.hops);
                              },
                              magnitude),
                          0.0, magnitude);
      });
}

TopologyResult dp_topology_clustering(
    const core::Queryable<ScatterRecord>& records,
    const TopologyOptions& options, const linalg::Matrix& eval_points) {
  if (!(options.eps_per_iteration > 0.0)) {
    throw std::invalid_argument(
        "topology options require an explicit eps_per_iteration > 0");
  }
  TopologyResult result;
  result.monitor_averages = dp_monitor_averages(records, options);

  // Per-IP hop vectors: still protected records (one per IP address).
  const std::vector<double> fill = result.monitor_averages;
  auto vectors = records
                     .group_by([](const ScatterRecord& r) { return r.ip; })
                     .select([fill](const Group<std::uint32_t,
                                                ScatterRecord>& grp) {
                       return vector_of_group(grp, fill);
                     });

  result.centers = linalg::random_centers(
      static_cast<std::size_t>(options.clusters),
      static_cast<std::size_t>(options.monitors), kInitLo, kInitHi,
      options.init_seed);

  // One noisy count plus one noisy sum per coordinate per cluster; the
  // per-IP grouping doubled the stability, so divide it back out to make
  // each iteration cost exactly eps_per_iteration (the paper's "another
  // multiple of the privacy cost" per iteration).
  const double eps_step =
      options.eps_per_iteration /
      (static_cast<double>(options.monitors + 1) * vectors.total_stability());
  const auto cluster_keys = iota_keys(options.clusters);

  for (int iter = 0; iter < options.iterations; ++iter) {
    const linalg::Matrix centers = result.centers;  // captured by value
    auto parts = vectors.partition(
        cluster_keys,
        [centers](const std::vector<double>& v) {
          return static_cast<int>(linalg::nearest_center(v, centers));
        },
        options.exec);
    // Each cluster's count + per-coordinate sums touch only its own
    // partition branch; the clusters fan out under the executor policy.
    const int monitors = options.monitors;
    const double magnitude = options.hop_magnitude;
    const auto stats = core::exec::map_parts(
        options.exec, cluster_keys, parts,
        [eps_step, monitors, magnitude](
            int, const core::Queryable<std::vector<double>>& part) {
          std::pair<double, std::vector<double>> out;
          out.first = part.noisy_count(eps_step);
          out.second.resize(static_cast<std::size_t>(monitors));
          for (int d = 0; d < monitors; ++d) {
            out.second[static_cast<std::size_t>(d)] = part.noisy_sum_scaled(
                eps_step,
                [d](const std::vector<double>& v) {
                  return v[static_cast<std::size_t>(d)];
                },
                magnitude);
          }
          return out;
        });
    for (int c = 0; c < options.clusters; ++c) {
      const auto& [count, sums] = stats[static_cast<std::size_t>(c)];
      if (count < 1.0) continue;  // too small to re-estimate; keep center
      for (int d = 0; d < options.monitors; ++d) {
        result.centers(static_cast<std::size_t>(c),
                       static_cast<std::size_t>(d)) =
            std::clamp(sums[static_cast<std::size_t>(d)] / count, 0.0,
                       options.hop_magnitude);
      }
    }
    result.objective_trace.push_back(
        linalg::clustering_objective(eval_points, result.centers));
  }
  return result;
}

linalg::Matrix exact_hop_vectors(std::span<const ScatterRecord> records,
                                 int monitors) {
  if (monitors <= 0) {
    throw std::invalid_argument("monitor count must be positive");
  }
  // Exact per-monitor averages for fill-in.
  std::vector<double> sums(static_cast<std::size_t>(monitors), 0.0);
  std::vector<double> counts(static_cast<std::size_t>(monitors), 0.0);
  for (const ScatterRecord& r : records) {
    if (r.monitor < 0 || r.monitor >= monitors) continue;
    sums[static_cast<std::size_t>(r.monitor)] += r.hops;
    counts[static_cast<std::size_t>(r.monitor)] += 1.0;
  }
  std::vector<double> fill(static_cast<std::size_t>(monitors), 0.0);
  for (int m = 0; m < monitors; ++m) {
    const auto i = static_cast<std::size_t>(m);
    fill[i] = counts[i] > 0.0 ? sums[i] / counts[i] : 0.0;
  }

  // Group by IP preserving first-occurrence order.
  std::unordered_map<std::uint32_t, std::size_t> index;
  std::vector<Group<std::uint32_t, ScatterRecord>> groups;
  for (const ScatterRecord& r : records) {
    auto [it, inserted] = index.emplace(r.ip, groups.size());
    if (inserted) {
      groups.push_back(Group<std::uint32_t, ScatterRecord>{r.ip, {}});
    }
    groups[it->second].items.push_back(r);
  }

  linalg::Matrix points(groups.size(), static_cast<std::size_t>(monitors));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::vector<double> v = vector_of_group(groups[g], fill);
    for (std::size_t m = 0; m < v.size(); ++m) points(g, m) = v[m];
  }
  return points;
}

linalg::KmeansResult exact_topology_clustering(
    const linalg::Matrix& points, const TopologyOptions& options) {
  return linalg::kmeans(
      points,
      linalg::random_centers(static_cast<std::size_t>(options.clusters),
                             points.cols(), kInitLo, kInitHi,
                             options.init_seed),
      options.iterations);
}

}  // namespace dpnet::analysis
