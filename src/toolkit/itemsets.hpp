// Differentially-private frequent itemset mining (§4.3).
//
// Apriori-style level-wise search adapted for privacy: at each level the
// records (item sets) are *partitioned* among the candidate itemsets — a
// record backs a single (hash-chosen) candidate it contains — so one
// noisy_counts histogram (Partition's max-cost rule) pays for all
// candidate counts.  The paper's
// counter-intuitive insight applies: aggressively high thresholds focus
// the records' support instead of spreading counts too thin.
#pragma once

#include <vector>

#include "core/queryable.hpp"

namespace dpnet::toolkit {

struct FrequentItemset {
  std::vector<int> items;  // sorted ascending
  double estimated_count = 0.0;
};

struct ItemsetOptions {
  int max_size = 2;            // largest itemset to mine
  double eps_per_level = 0.0;  // privacy cost per apriori level (0 rejects)
  double threshold = 20.0;     // keep candidates with noisy count above this
  std::size_t max_candidates = 2048;
};

/// Mines itemsets of size 1..max_size from records that are themselves
/// sets of items (sorted, duplicate-free std::vector<int>).
/// `item_universe` bounds the level-1 candidates (e.g. well-known ports).
/// Total privacy cost: max_size * eps_per_level.
/// Results are sorted by (size, estimated count desc).
std::vector<FrequentItemset> frequent_itemsets(
    const core::Queryable<std::vector<int>>& data,
    const std::vector<int>& item_universe, const ItemsetOptions& options);

/// Noise-free reference (trusted side): exact support counts — note that
/// exact apriori lets one record support *many* candidates, unlike the
/// private version, so private counts are under-estimates by design.
std::vector<FrequentItemset> exact_frequent_itemsets(
    const std::vector<std::vector<int>>& data,
    const std::vector<int>& item_universe, int max_size, double threshold);

}  // namespace dpnet::toolkit
