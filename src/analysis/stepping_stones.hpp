// §5.2.2: stepping-stone detection (Zhang & Paxson) under differential
// privacy.  Interactive flows that repeatedly go idle-to-active together
// are correlated; the private pipeline extracts activations with a
// bucketed two-pass grouping, bins them by the correlation window, mines
// frequently co-active flow pairs, and privately scores each candidate
// pair (Table 5).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/exec/policy.hpp"
#include "core/queryable.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"

namespace dpnet::analysis {

struct SteppingStoneOptions {
  double t_idle = 0.5;   // idle timeout (s)
  double delta = 0.040;  // correlation window (s)
  double eps_itemset = 0.0;  // per apriori level, 2 levels (0 rejects)
  double itemset_threshold = 30.0;
  double eps_eval = 0.0;     // per count when scoring a pair (0 rejects)
  int top_k = 20;
  std::size_t max_eval_pairs = 64;
  // The activation partition classifies its rows under this policy.
  // Pair scoring itself stays sequential: the joins cross partition
  // branches and share a memoized per-flow bin cache, so its releases are
  // not independent branches.
  core::exec::ExecPolicy exec;
};

struct StonePairScore {
  net::FlowKey a;
  net::FlowKey b;
  double noisy_correlation = 0.0;
};

/// Private activation extraction: packets are grouped by (flow, time
/// bucket of width 2*t_idle); a group's earliest second-half packet
/// preceded by more than t_idle of in-group silence is an activation.
/// A second pass shifted by t_idle covers first-half activations, so
/// together the two passes cover every activation exactly once — the
/// price is the doubled grouping noise the paper describes.
[[nodiscard]] core::Queryable<net::Activation> dp_activations(
    const core::Queryable<net::Packet>& packets, double t_idle);

/// The full private pipeline over the given candidate flows (the analysis
/// scope — e.g. flows with [1200, 1400] activations, as in the paper).
/// Returns up to top_k pairs ranked by noisy correlation.
std::vector<StonePairScore> dp_stepping_stones(
    const core::Queryable<net::Packet>& packets,
    const std::vector<net::FlowKey>& candidate_flows,
    const SteppingStoneOptions& options);

/// Noise-free reference (the paper's faithful Perl-script role): exact
/// sliding-window correlation for every candidate flow pair, descending.
struct ExactPairScore {
  net::FlowKey a;
  net::FlowKey b;
  double correlation = 0.0;
};
std::vector<ExactPairScore> exact_stepping_stones(
    std::span<const net::Packet> trace,
    const std::vector<net::FlowKey>& candidate_flows, double t_idle,
    double delta);

/// Exact activation times per candidate flow (trusted side).
std::unordered_map<net::FlowKey, std::vector<double>>
exact_activation_times(std::span<const net::Packet> trace,
                       const std::vector<net::FlowKey>& candidate_flows,
                       double t_idle);

/// Fraction of activations of either flow that have a counterpart in the
/// other flow within delta: (matched_a + matched_b) / (n_a + n_b).
double exact_correlation(std::span<const double> a_times,
                         std::span<const double> b_times, double delta);

}  // namespace dpnet::analysis
