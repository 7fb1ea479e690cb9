#include "toolkit/itemsets.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "core/hash.hpp"

namespace dpnet::toolkit {

namespace {

bool contains_all(const std::vector<int>& record,
                  const std::vector<int>& candidate) {
  return std::includes(record.begin(), record.end(), candidate.begin(),
                       candidate.end());
}

/// Apriori candidate generation: join frequent k-sets sharing their first
/// k-1 items; prune candidates with any infrequent k-subset.
std::vector<std::vector<int>> apriori_gen(
    const std::vector<std::vector<int>>& frequent) {
  std::vector<std::vector<int>> candidates;
  for (std::size_t i = 0; i < frequent.size(); ++i) {
    for (std::size_t j = i + 1; j < frequent.size(); ++j) {
      const auto& a = frequent[i];
      const auto& b = frequent[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1)) {
        continue;
      }
      std::vector<int> merged = a;
      merged.push_back(b.back());
      std::sort(merged.begin(), merged.end());
      // Prune: every (k-1)-subset must be frequent.
      bool ok = true;
      for (std::size_t drop = 0; drop + 1 < merged.size() && ok; ++drop) {
        std::vector<int> subset = merged;
        subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(drop));
        ok = std::binary_search(frequent.begin(), frequent.end(), subset);
      }
      if (ok) candidates.push_back(std::move(merged));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

/// Index of the single candidate this record backs, or -1 if it supports
/// none.  Each record is assigned to one supported candidate chosen by a
/// content hash salted with the record's position in the pass: always
/// picking the first supported candidate would starve candidates that
/// co-occur with more popular ones, and a pure content hash would send
/// every copy of a popular record to the same candidate.  The salted
/// spread splits support evenly and is deterministic per run.
int pick_supported(const std::vector<int>& record,
                   const std::vector<std::vector<int>>& candidates,
                   std::size_t salt) {
  std::vector<int> supported;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (contains_all(record, candidates[c])) {
      supported.push_back(static_cast<int>(c));
    }
  }
  if (supported.empty()) return -1;
  std::size_t h = 0x9e3779b97f4a7c15ULL + salt;
  for (int item : record) {
    dpnet::core::hash_combine(h, std::hash<int>{}(item));
  }
  return supported[h % supported.size()];
}

}  // namespace

std::vector<FrequentItemset> frequent_itemsets(
    const core::Queryable<std::vector<int>>& data,
    const std::vector<int>& item_universe, const ItemsetOptions& options) {
  if (options.max_size < 1) {
    throw std::invalid_argument("itemset max_size must be >= 1");
  }
  if (!(options.eps_per_level > 0.0)) {
    throw std::invalid_argument(
        "itemset options require an explicit eps_per_level > 0");
  }

  std::vector<FrequentItemset> results;
  // Level-1 candidates: the item universe as singletons.
  std::vector<std::vector<int>> candidates;
  candidates.reserve(item_universe.size());
  for (int item : item_universe) candidates.push_back({item});

  std::vector<std::vector<int>> frequent_prev;
  for (int level = 1; level <= options.max_size && !candidates.empty();
       ++level) {
    if (candidates.size() > options.max_candidates) {
      candidates.resize(options.max_candidates);
    }
    std::vector<int> keys(candidates.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<int>(i);
    }
    // One noisy count per candidate, as one histogram.  The salt advances
    // once per record, so the key function must see the records once
    // each, in order: the tally runs without an executor policy.
    std::size_t salt = 0;
    const std::vector<double> counts = data.noisy_counts(
        keys,
        [&candidates, &salt](const std::vector<int>& rec) {
          return pick_supported(rec, candidates, salt++);
        },
        options.eps_per_level);

    std::vector<std::pair<std::vector<int>, double>> surviving;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (counts[c] > options.threshold) {
        surviving.emplace_back(candidates[c], counts[c]);
      }
    }

    std::sort(surviving.begin(), surviving.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    frequent_prev.clear();
    for (const auto& [items, count] : surviving) {
      results.push_back(FrequentItemset{items, count});
      frequent_prev.push_back(items);
    }

    if (level < options.max_size) {
      std::sort(frequent_prev.begin(), frequent_prev.end());
      candidates = apriori_gen(frequent_prev);
    }
  }

  std::sort(results.begin(), results.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.estimated_count > b.estimated_count;
            });
  return results;
}

std::vector<FrequentItemset> exact_frequent_itemsets(
    const std::vector<std::vector<int>>& data,
    const std::vector<int>& item_universe, int max_size, double threshold) {
  std::vector<FrequentItemset> results;
  std::vector<std::vector<int>> candidates;
  for (int item : item_universe) candidates.push_back({item});

  for (int level = 1; level <= max_size && !candidates.empty(); ++level) {
    // Candidates are known up front, so counts are a dense vector keyed
    // by candidate index — no per-support map node allocation (the
    // candidate list itself is the insertion log).
    std::vector<std::size_t> counts(candidates.size(), 0);
    for (const auto& record : data) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (contains_all(record, candidates[c])) ++counts[c];
      }
    }
    // Emit in sorted-candidate order — the iteration order of the
    // std::map this replaced (level-1 candidates can arrive unsorted).
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&candidates](std::size_t a, std::size_t b) {
                return candidates[a] < candidates[b];
              });
    std::vector<std::vector<int>> frequent;
    for (std::size_t c : order) {
      if (counts[c] != 0 && static_cast<double>(counts[c]) > threshold) {
        results.push_back(FrequentItemset{candidates[c],
                                          static_cast<double>(counts[c])});
        frequent.push_back(candidates[c]);
      }
    }
    std::sort(frequent.begin(), frequent.end());
    if (level < max_size) candidates = apriori_gen(frequent);
  }

  std::sort(results.begin(), results.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.estimated_count > b.estimated_count;
            });
  return results;
}

}  // namespace dpnet::toolkit
