#include "analysis/stepping_stones.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "toolkit/itemsets.hpp"

namespace dpnet::analysis {

using core::Group;
using net::Activation;
using net::FlowKey;
using net::Packet;

namespace {

using BucketKey = std::pair<FlowKey, std::int64_t>;

/// The earliest packet in the group that lies in the second half of the
/// bucket and is preceded by more than t_idle of silence within the group
/// (or is the group's first packet).  In-group context is sufficient: any
/// predecessor within t_idle of a second-half packet falls inside the
/// same bucket.
std::optional<Packet> group_activation(const Group<BucketKey, Packet>& grp,
                                       double t_idle, double offset) {
  const double width = 2.0 * t_idle;
  for (std::size_t i = 0; i < grp.items.size(); ++i) {
    const Packet& p = grp.items[i];
    const double in_bucket = std::fmod(p.timestamp + offset, width);
    if (in_bucket < t_idle) continue;  // first half
    if (i == 0 || p.timestamp - grp.items[i - 1].timestamp > t_idle) {
      return p;
    }
  }
  return std::nullopt;
}

core::Queryable<Activation> activation_pass(
    const core::Queryable<Packet>& packets, double t_idle, double offset) {
  const double width = 2.0 * t_idle;
  return packets
      .group_by([width, offset](const Packet& p) {
        return BucketKey{net::flow_of(p),
                         static_cast<std::int64_t>(
                             std::floor((p.timestamp + offset) / width))};
      })
      .where([t_idle, offset](const Group<BucketKey, Packet>& grp) {
        return group_activation(grp, t_idle, offset).has_value();
      })
      .select([t_idle, offset](const Group<BucketKey, Packet>& grp) {
        const Packet p = *group_activation(grp, t_idle, offset);
        return Activation{net::flow_of(p), p.timestamp};
      });
}

}  // namespace

core::Queryable<Activation> dp_activations(
    const core::Queryable<Packet>& packets, double t_idle) {
  return activation_pass(packets, t_idle, 0.0)
      .concat(activation_pass(packets, t_idle, t_idle));
}

std::vector<StonePairScore> dp_stepping_stones(
    const core::Queryable<Packet>& packets,
    const std::vector<FlowKey>& candidate_flows,
    const SteppingStoneOptions& options) {
  if (!(options.eps_itemset > 0.0) || !(options.eps_eval > 0.0)) {
    throw std::invalid_argument(
        "stepping-stone options require explicit eps_itemset and "
        "eps_eval > 0");
  }
  // Index the analysis scope; all private processing below speaks in flow
  // indices.
  std::unordered_map<FlowKey, int> index;
  for (std::size_t i = 0; i < candidate_flows.size(); ++i) {
    index.emplace(candidate_flows[i], static_cast<int>(i));
  }

  auto activations =
      dp_activations(packets, options.t_idle)
          .where([&index](const Activation& a) {
            return index.count(a.flow) > 0;
          })
          .select([&index, &options](const Activation& a) {
            // (flow index, correlation bin)
            return std::pair<int, std::int64_t>{
                index.at(a.flow),
                static_cast<std::int64_t>(
                    std::floor(a.time / options.delta))};
          });

  // Bin -> the set of flows activating in that bin, then mine frequently
  // co-active pairs.
  auto bins = activations
                  .group_by([](const std::pair<int, std::int64_t>& a) {
                    return a.second;
                  })
                  .select([](const Group<std::int64_t,
                                         std::pair<int, std::int64_t>>& grp) {
                    std::set<int> flows;
                    for (const auto& a : grp.items) flows.insert(a.first);
                    return std::vector<int>(flows.begin(), flows.end());
                  });

  std::vector<int> universe(candidate_flows.size());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    universe[i] = static_cast<int>(i);
  }
  toolkit::ItemsetOptions iopt;
  iopt.max_size = 2;
  iopt.eps_per_level = options.eps_itemset;
  iopt.threshold = options.itemset_threshold;
  const auto itemsets = toolkit::frequent_itemsets(bins, universe, iopt);

  std::vector<std::pair<int, int>> pairs;
  for (const auto& set : itemsets) {
    if (set.items.size() == 2) {
      pairs.emplace_back(set.items[0], set.items[1]);
      if (pairs.size() >= options.max_eval_pairs) break;
    }
  }
  if (pairs.empty()) return {};

  // Score candidates: Partition the activations by flow (the paper's
  // cost-saving step), then for a pair (f, g) count the bins both occupy.
  auto parts = activations.partition(
      universe, [](const std::pair<int, std::int64_t>& a) { return a.first; },
      options.exec);

  struct FlowBins {
    core::Queryable<std::int64_t> bins;      // distinct occupied bins
    core::Queryable<std::int64_t> dilated;   // bins +/- one neighbor
    double noisy_total;
  };
  std::unordered_map<int, FlowBins> flow_bins;
  auto bins_of = [&](int f) -> FlowBins& {
    auto it = flow_bins.find(f);
    if (it != flow_bins.end()) return it->second;
    auto b = parts.at(f)
                 .select([](const std::pair<int, std::int64_t>& a) {
                   return a.second;
                 })
                 .distinct();
    // Dilating by one bin approximates the sliding +/-delta window: an
    // activation pair whose lag crosses the fixed bin boundary still
    // counts, as it would under the original algorithm.
    auto dilated = b.select_many(
                        [](std::int64_t bin) {
                          return std::vector<std::int64_t>{bin - 1, bin,
                                                           bin + 1};
                        },
                        3)
                       .distinct();
    const double total = b.noisy_count(options.eps_eval);
    return flow_bins
        .emplace(f, FlowBins{std::move(b), std::move(dilated), total})
        .first->second;
  };

  std::vector<StonePairScore> scored;
  for (const auto& [f, g] : pairs) {
    FlowBins& bf = bins_of(f);
    FlowBins& bg = bins_of(g);
    const double both =
        bf.bins
            .join(
                bg.dilated, [](std::int64_t x) { return x; },
                [](std::int64_t y) { return y; },
                [](std::int64_t x, std::int64_t) { return x; })
            .noisy_count(options.eps_eval);
    const double denom = std::max(1.0, bf.noisy_total + bg.noisy_total);
    StonePairScore s;
    s.a = candidate_flows[static_cast<std::size_t>(f)];
    s.b = candidate_flows[static_cast<std::size_t>(g)];
    s.noisy_correlation = std::clamp(2.0 * both / denom, 0.0, 1.0);
    scored.push_back(s);
  }

  std::sort(scored.begin(), scored.end(),
            [](const StonePairScore& a, const StonePairScore& b) {
              return a.noisy_correlation > b.noisy_correlation;
            });
  if (scored.size() > static_cast<std::size_t>(options.top_k)) {
    scored.resize(static_cast<std::size_t>(options.top_k));
  }
  return scored;
}

std::unordered_map<FlowKey, std::vector<double>> exact_activation_times(
    std::span<const Packet> trace,
    const std::vector<FlowKey>& candidate_flows, double t_idle) {
  std::unordered_set<FlowKey> wanted(candidate_flows.begin(),
                                     candidate_flows.end());
  std::unordered_map<FlowKey, std::vector<double>> out;
  for (const Activation& a : net::extract_activations(trace, t_idle)) {
    if (wanted.count(a.flow)) out[a.flow].push_back(a.time);
  }
  for (auto& [flow, times] : out) std::sort(times.begin(), times.end());
  return out;
}

double exact_correlation(std::span<const double> a_times,
                         std::span<const double> b_times, double delta) {
  if (a_times.empty() && b_times.empty()) return 0.0;
  auto matched = [delta](std::span<const double> xs,
                         std::span<const double> ys) {
    std::size_t count = 0;
    std::size_t j = 0;
    for (double x : xs) {
      while (j < ys.size() && ys[j] < x - delta) ++j;
      if (j < ys.size() && std::abs(ys[j] - x) <= delta) ++count;
    }
    return count;
  };
  const double m = static_cast<double>(matched(a_times, b_times) +
                                       matched(b_times, a_times));
  return m / static_cast<double>(a_times.size() + b_times.size());
}

std::vector<ExactPairScore> exact_stepping_stones(
    std::span<const Packet> trace,
    const std::vector<FlowKey>& candidate_flows, double t_idle,
    double delta) {
  const auto times = exact_activation_times(trace, candidate_flows, t_idle);
  static const std::vector<double> kEmpty;
  auto times_of = [&](const FlowKey& f) -> const std::vector<double>& {
    const auto it = times.find(f);
    return it == times.end() ? kEmpty : it->second;
  };
  std::vector<ExactPairScore> out;
  for (std::size_t i = 0; i < candidate_flows.size(); ++i) {
    for (std::size_t j = i + 1; j < candidate_flows.size(); ++j) {
      ExactPairScore s;
      s.a = candidate_flows[i];
      s.b = candidate_flows[j];
      s.correlation = exact_correlation(times_of(s.a), times_of(s.b), delta);
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ExactPairScore& a, const ExactPairScore& b) {
              return a.correlation > b.correlation;
            });
  return out;
}

}  // namespace dpnet::analysis
