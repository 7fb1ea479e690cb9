// Differentially-private frequent-(sub)string discovery (§4.2).
//
// Reveals strings that occur many times in the protected data by growing
// byte prefixes: count records by (surviving prefix, next byte) in one
// noisy histogram grid, keep extensions whose noisy count clears the
// threshold, repeat.  The privacy cost is eps_per_level per byte position
// (the grid's prefix rows are disjoint partition parts, so each level's
// cost is independent of the number of candidates), so a search to
// length B costs B * eps_per_level in total.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/exec/policy.hpp"
#include "core/queryable.hpp"

namespace dpnet::toolkit {

struct FrequentString {
  std::string value;
  double estimated_count = 0.0;
};

struct FrequentStringOptions {
  std::size_t length = 8;        // bytes to spell out
  double eps_per_level = 0.0;    // privacy cost per byte (0 rejects)
  double threshold = 50.0;       // keep prefixes with noisy count above this
  std::size_t max_candidates = 4096;  // safety valve on the frontier
  core::exec::ExecPolicy exec;   // each level's tally and draws run in chunks
};

/// Finds strings of exactly `options.length` bytes whose occurrence count
/// (noisily) exceeds `options.threshold`.  Records shorter than `length`
/// are ignored; longer records participate through their prefix.
/// Results are sorted by estimated count, descending.
std::vector<FrequentString> frequent_strings(
    const core::Queryable<std::string>& data,
    const FrequentStringOptions& options);

/// The paper's §4.2 contract is a user-specified threshold *with a
/// user-specified confidence*: this helper converts a per-level false-
/// positive budget into the survival threshold that achieves it.  An
/// empty byte bin survives a level when its Laplace(1/eps) noise exceeds
/// the threshold, which happens with probability exp(-eps*t)/2; with
/// `candidate_bins` bins examined per level, a threshold of
///   t = ln(candidate_bins / (2 * false_positive_rate)) / eps
/// keeps the expected number of noise-born survivors per level below
/// `false_positive_rate`.
double threshold_for_confidence(double eps_per_level,
                                double false_positive_rate,
                                std::size_t candidate_bins);

/// Noise-free reference (trusted side only): exact counts of all
/// length-byte prefixes occurring more than `threshold` times.
std::vector<FrequentString> exact_frequent_strings(
    const std::vector<std::string>& data, std::size_t length,
    double threshold);

/// Renders a payload string as uppercase hex (Table 4 presentation).
std::string to_hex(const std::string& bytes);

}  // namespace dpnet::toolkit
