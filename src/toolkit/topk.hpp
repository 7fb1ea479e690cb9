// Differentially-private top-k selection over a known candidate universe.
//
// Two mechanisms, both useful when an analysis only needs to *identify*
// the heaviest candidates rather than read all their counts:
//   * peeling report-noisy-max — k rounds; each round draws fresh noisy
//     counts for the remaining candidates and takes the maximum.  Only the
//     selection order is released.
//   * noisy-counts ranking — one pass; every candidate's noisy count is
//     released and the k largest are taken.
// Both cost a total of eps thanks to Partition's max-cost accounting.
#pragma once

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/queryable.hpp"

namespace dpnet::toolkit {

struct TopKResult {
  std::vector<std::size_t> indices;  // into the candidate universe
  /// For noisy-count ranking: the released noisy counts.  For peeling:
  /// only the selection rank (k down to 1) — the per-round noisy counts
  /// are used internally for the argmax and not published.
  std::vector<double> scores;
};

/// Peeling report-noisy-max: returns k candidate indices, most-likely
/// heaviest first.  `index_of` maps a record to its candidate index (or
/// -1 / out-of-range to drop it).  Total privacy cost: eps — each
/// candidate's part pays at most k * (eps / k).
template <typename T, typename IndexF>
TopKResult top_k_peeling(const core::Queryable<T>& data,
                         std::size_t universe_size, IndexF index_of,
                         std::size_t k, double eps) {
  if (k == 0 || k > universe_size) {
    throw core::InvalidQueryError("top_k requires 0 < k <= universe");
  }
  const double eps_round = eps / static_cast<double>(k);
  std::vector<int> keys(universe_size);
  for (std::size_t i = 0; i < universe_size; ++i) {
    keys[i] = static_cast<int>(i);
  }
  auto parts = data.partition(keys, index_of);

  TopKResult result;
  std::vector<bool> taken(universe_size, false);
  for (std::size_t round = 0; round < k; ++round) {
    std::size_t best = universe_size;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < universe_size; ++i) {
      if (taken[i]) continue;
      const double noisy =
          parts.at(static_cast<int>(i)).noisy_count(eps_round);
      if (noisy > best_score) {
        best_score = noisy;
        best = i;
      }
    }
    taken[best] = true;
    result.indices.push_back(best);
    result.scores.push_back(static_cast<double>(k - round));
  }
  return result;
}

/// Noisy-count ranking via one noisy_counts histogram: releases every
/// candidate's noisy count and returns the k largest.  Total privacy
/// cost: eps.
template <typename T, typename IndexF>
TopKResult top_k_noisy_counts(const core::Queryable<T>& data,
                              std::size_t universe_size, IndexF index_of,
                              std::size_t k, double eps) {
  if (k == 0 || k > universe_size) {
    throw core::InvalidQueryError("top_k requires 0 < k <= universe");
  }
  std::vector<int> keys(universe_size);
  for (std::size_t i = 0; i < universe_size; ++i) {
    keys[i] = static_cast<int>(i);
  }
  const std::vector<double> counts = data.noisy_counts(keys, index_of, eps);
  std::vector<std::pair<double, std::size_t>> ranked;
  ranked.reserve(universe_size);
  for (std::size_t i = 0; i < universe_size; ++i) {
    ranked.emplace_back(counts[i], i);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  TopKResult result;
  for (std::size_t i = 0; i < k; ++i) {
    result.indices.push_back(ranked[i].second);
    result.scores.push_back(ranked[i].first);
  }
  return result;
}

}  // namespace dpnet::toolkit
