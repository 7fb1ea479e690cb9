// The grouping engine (core/grouping): the tag-byte table itself, and
// reference agreement for every operator rewired onto it.  Each rewired
// operator is compared against the historical unordered_map/set idiom it
// replaced — outputs must match exactly, values and order both, because
// the determinism contract pins first-occurrence order.
#include "core/grouping/table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/grouping/builder.hpp"
#include "core/queryable.hpp"
#include "toolkit/frequent_strings.hpp"
#include "toolkit/itemsets.hpp"

namespace dpnet::core {
namespace {

// ---------------------------------------------------------------------
// GroupTable unit tests
// ---------------------------------------------------------------------

TEST(GroupTable, AssignsDenseSlotsInFirstOccurrenceOrder) {
  grouping::GroupTable<std::string> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.acquire("tcp"), (std::pair<std::uint32_t, bool>{0, true}));
  EXPECT_EQ(table.acquire("udp"), (std::pair<std::uint32_t, bool>{1, true}));
  EXPECT_EQ(table.acquire("tcp"), (std::pair<std::uint32_t, bool>{0, false}));
  EXPECT_EQ(table.acquire("icmp"), (std::pair<std::uint32_t, bool>{2, true}));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.keys(), (std::vector<std::string>{"tcp", "udp", "icmp"}));
  EXPECT_EQ(table.find("udp"), 1u);
  EXPECT_EQ(table.find("gre"), grouping::kNoSlot);
  EXPECT_TRUE(table.contains("icmp"));
  EXPECT_FALSE(table.contains(""));
}

TEST(GroupTable, EmptyTableFindsNothing) {
  const grouping::GroupTable<int> table;
  EXPECT_EQ(table.find(7), grouping::kNoSlot);
  EXPECT_EQ(table.size(), 0u);
}

// Growth path: every key inserted before, during, and after several
// incremental rehash generations must stay findable at its original
// slot, and the insertion log must never reorder.
TEST(GroupTable, RehashUnderGrowthKeepsEverySlotStable) {
  grouping::GroupTable<std::uint64_t> table;
  constexpr std::uint64_t kKeys = 50'000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const auto [slot, inserted] = table.acquire(k * 2654435761ULL);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(slot, k);
    // Re-probe a sliding window of older keys mid-growth, where probes
    // must consult both the new and the not-yet-drained old arrays.
    if (k % 97 == 0) {
      for (std::uint64_t back = 0; back <= k; back += 1 + k / 13) {
        ASSERT_EQ(table.find(back * 2654435761ULL), back)
            << "key " << back << " lost after " << k << " inserts";
      }
    }
  }
  EXPECT_EQ(table.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table.find(k * 2654435761ULL), k);
    ASSERT_EQ(table.key_at(static_cast<std::uint32_t>(k)),
              k * 2654435761ULL);
  }
  // Duplicate acquires after the dust settles still hit the old slots.
  EXPECT_EQ(table.acquire(0).first, 0u);
  EXPECT_FALSE(table.acquire(0).second);
}

TEST(GroupTable, ReservePresizesWithoutDisturbingSemantics) {
  grouping::GroupTable<int> table;
  table.reserve(10'000);
  for (int k = 0; k < 10'000; ++k) {
    ASSERT_EQ(table.acquire(k).first, static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(table.size(), 10'000u);
  EXPECT_EQ(table.find(9'999), 9'999u);
}

/// Adversarial hasher: every key collides into one bucket chain, so the
/// table degenerates to bucket-linear probing with identical tags — the
/// worst case for both probing and growth.
struct ColliderHash {
  std::size_t operator()(int) const { return 42; }
};

TEST(GroupTable, SurvivesCollisionHeavyAdversarialKeys) {
  grouping::GroupTable<int, ColliderHash> table;
  constexpr int kKeys = 3'000;
  for (int k = 0; k < kKeys; ++k) {
    const auto [slot, inserted] = table.acquire(k);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(slot, static_cast<std::uint32_t>(k));
  }
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table.find(k), static_cast<std::uint32_t>(k));
    ASSERT_FALSE(table.acquire(k).second);
  }
  EXPECT_EQ(table.find(kKeys + 1), grouping::kNoSlot);
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kKeys));
}

// ---------------------------------------------------------------------
// GroupBuilder unit tests
// ---------------------------------------------------------------------

TEST(GroupBuilder, GroupByKeepsOneOpenGroupPerKey) {
  grouping::GroupBuilder<int, int> builder;
  for (int x : {3, 1, 3, 2, 1, 3}) builder.add(x % 10, x);
  const auto groups = builder.take();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].key, 3);
  EXPECT_EQ(groups[0].items, (std::vector<int>{3, 3, 3}));
  EXPECT_EQ(groups[1].key, 1);
  EXPECT_EQ(groups[1].items, (std::vector<int>{1, 1}));
  EXPECT_EQ(groups[2].key, 2);
  EXPECT_EQ(groups[2].items, (std::vector<int>{2}));
}

TEST(GroupBuilder, SpanPredicateSkippedOnAKeysFirstRecord) {
  grouping::GroupBuilder<int, int> builder;
  int predicate_calls = 0;
  const auto always_split = [&predicate_calls] {
    ++predicate_calls;
    return true;
  };
  builder.add_span(7, 1, always_split);
  EXPECT_EQ(predicate_calls, 0);  // first record of key 7: not consulted
  builder.add_span(7, 2, always_split);
  EXPECT_EQ(predicate_calls, 1);
  const auto groups = builder.take();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].items, (std::vector<int>{1}));
  EXPECT_EQ(groups[1].items, (std::vector<int>{2}));
}

// ---------------------------------------------------------------------
// Reference agreement: every rewired operator vs the historical idiom
// ---------------------------------------------------------------------

std::vector<int> clustered_values(std::size_t n, int spread,
                                  std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, spread - 1);
  std::vector<int> out(n);
  for (auto& x : out) x = dist(rng);
  return out;
}

Queryable<int> protect(std::vector<int> data, std::uint64_t seed = 5) {
  return Queryable<int>(std::move(data), std::make_shared<RootBudget>(1e9),
                        std::make_shared<NoiseSource>(seed));
}

TEST(GroupingAgreement, DistinctMatchesUnorderedSetReference) {
  const auto data = clustered_values(5'000, 128, 101);
  // Historical idiom: unordered_set membership, first occurrence kept.
  std::vector<int> expected;
  std::unordered_set<int> seen;
  for (int x : data) {
    if (seen.insert(x).second) expected.push_back(x);
  }
  EXPECT_EQ(protect(data).distinct().data_unsafe(), expected);
}

TEST(GroupingAgreement, GroupByMatchesUnorderedMapReference) {
  const auto data = clustered_values(5'000, 77, 102);
  const auto key = [](int x) { return x % 19; };
  // Historical idiom: key -> group index map.
  std::vector<Group<int, int>> expected;
  std::unordered_map<int, std::size_t> index;
  for (int x : data) {
    int k = key(x);
    auto [it, inserted] = index.emplace(k, expected.size());
    if (inserted) expected.push_back(Group<int, int>{k, {}});
    expected[it->second].items.push_back(x);
  }
  const auto groups = protect(data).group_by(key).data_unsafe();
  ASSERT_EQ(groups.size(), expected.size());
  for (std::size_t g = 0; g < expected.size(); ++g) {
    EXPECT_EQ(groups[g].key, expected[g].key) << "group " << g;
    EXPECT_EQ(groups[g].items, expected[g].items) << "group " << g;
  }
}

// Regression: a bool key makes every key store in the grouping layer a
// std::vector<bool>, whose proxy operator[] once turned key_at() into a
// dangling reference (crashed the block-scan group_by path).
TEST(GroupingAgreement, GroupByHandlesProxyVectorBoolKeys) {
  const auto data = clustered_values(5'000, 16, 104);
  const auto key = [](int x) { return x % 2 == 0; };
  std::vector<Group<bool, int>> expected;
  std::unordered_map<bool, std::size_t> index;
  for (int x : data) {
    const bool k = key(x);
    auto [it, inserted] = index.emplace(k, expected.size());
    if (inserted) expected.push_back(Group<bool, int>{k, {}});
    expected[it->second].items.push_back(x);
  }
  const auto groups = protect(data).group_by(key).data_unsafe();
  ASSERT_EQ(groups.size(), expected.size());
  for (std::size_t g = 0; g < expected.size(); ++g) {
    EXPECT_EQ(groups[g].key, expected[g].key) << "group " << g;
    EXPECT_EQ(groups[g].items, expected[g].items) << "group " << g;
  }
}

TEST(GroupingAgreement, GroupBySpansMatchesHistoricalReference) {
  const auto data = clustered_values(5'000, 64, 103);
  const auto key = [](int x) { return x % 7; };
  const auto boundary = [](int x) { return x % 13 == 0; };
  // Historical idiom: open-group map with in-place span splits.
  std::vector<Group<int, int>> expected;
  std::unordered_map<int, std::size_t> open;
  for (int x : data) {
    int k = key(x);
    auto it = open.find(k);
    if (it == open.end() || boundary(x)) {
      const std::size_t index = expected.size();
      expected.push_back(Group<int, int>{k, {}});
      if (it == open.end()) {
        open.emplace(k, index);
      } else {
        it->second = index;
      }
      expected.back().items.push_back(x);
    } else {
      expected[it->second].items.push_back(x);
    }
  }
  const auto groups =
      protect(data).group_by_spans(key, boundary).data_unsafe();
  ASSERT_EQ(groups.size(), expected.size());
  for (std::size_t g = 0; g < expected.size(); ++g) {
    EXPECT_EQ(groups[g].key, expected[g].key) << "group " << g;
    EXPECT_EQ(groups[g].items, expected[g].items) << "group " << g;
  }
}

TEST(GroupingAgreement, JoinMatchesUnorderedMapReference) {
  const auto left = clustered_values(2'000, 40, 104);
  const auto right = clustered_values(2'000, 40, 105);
  const auto lkey = [](int x) { return x % 11; };
  const auto rkey = [](int y) { return (y + 3) % 11; };
  const auto zip = [](int x, int y) { return std::pair<int, int>{x, y}; };
  // Historical idiom: key -> pointer-group map plus per-key used cursor.
  std::unordered_map<int, std::vector<const int*>> by_key;
  for (const int& y : right) by_key[rkey(y)].push_back(&y);
  std::unordered_map<int, std::size_t> used;
  std::vector<std::pair<int, int>> expected;
  for (const int& x : left) {
    const int k = lkey(x);
    auto it = by_key.find(k);
    if (it == by_key.end()) continue;
    std::size_t& u = used[k];
    if (u >= it->second.size()) continue;
    expected.push_back(zip(x, *it->second[u]));
    ++u;
  }
  const auto joined =
      protect(left, 5).join(protect(right, 6), lkey, rkey, zip);
  EXPECT_EQ(joined.data_unsafe(), expected);
}

TEST(GroupingAgreement, SetOpsMatchUnorderedSetReferences) {
  const auto a = clustered_values(3'000, 90, 106);
  const auto b = clustered_values(3'000, 90, 107);
  std::vector<int> union_ref;
  {
    std::unordered_set<int> emitted;
    for (int x : a) {
      if (emitted.insert(x).second) union_ref.push_back(x);
    }
    for (int x : b) {
      if (emitted.insert(x).second) union_ref.push_back(x);
    }
  }
  std::vector<int> except_ref;
  {
    const std::unordered_set<int> removed(b.begin(), b.end());
    std::unordered_set<int> emitted;
    for (int x : a) {
      if (!removed.count(x) && emitted.insert(x).second) {
        except_ref.push_back(x);
      }
    }
  }
  std::vector<int> intersect_ref;
  {
    const std::unordered_set<int> in_right(b.begin(), b.end());
    std::unordered_set<int> emitted;
    for (int x : a) {
      if (in_right.count(x) && emitted.insert(x).second) {
        intersect_ref.push_back(x);
      }
    }
  }
  EXPECT_EQ(protect(a, 5).set_union(protect(b, 6)).data_unsafe(), union_ref);
  EXPECT_EQ(protect(a, 5).except(protect(b, 6)).data_unsafe(), except_ref);
  EXPECT_EQ(protect(a, 5).intersect(protect(b, 6)).data_unsafe(),
            intersect_ref);
}

TEST(GroupingAgreement, PartitionMatchesBucketedReference) {
  const auto data = clustered_values(4'000, 256, 108);
  std::vector<int> keys;
  for (int k = 0; k < 16; ++k) keys.push_back(k);
  const auto key = [](int x) { return x % 23; };  // some keys unlisted
  std::unordered_map<int, std::vector<int>> expected;
  for (int k : keys) expected.emplace(k, std::vector<int>{});
  for (int x : data) {
    auto it = expected.find(key(x));
    if (it != expected.end()) it->second.push_back(x);
  }
  auto parts = protect(data).partition(keys, key);
  ASSERT_EQ(parts.size(), keys.size());
  for (int k : keys) {
    EXPECT_EQ(parts.at(k).data_unsafe(), expected.at(k)) << "key " << k;
  }
}

TEST(GroupingAgreement, PartitionStillRejectsDuplicateKeys) {
  EXPECT_THROW(
      protect(clustered_values(10, 4, 109))
          .partition(std::vector<int>{1, 2, 1}, [](int x) { return x; }),
      InvalidQueryError);
}

TEST(GroupingAgreement, StreamingHistogramMatchesUnorderedMapReference) {
  const auto data = clustered_values(20'000, 48, 110);
  std::vector<int> cells;
  for (int c = 0; c < 32; ++c) cells.push_back(c);  // cells 32..47 dropped
  std::size_t records_seen = 0;
  const auto streamed = Queryable<int>::streamed(
      [&data, &records_seen](plan::SourceSink<int>& sink) {
        for (int x : data) {
          ++records_seen;
          sink(x);
        }
      },
      std::make_shared<RootBudget>(1e9), std::make_shared<NoiseSource>(9));
  std::unordered_map<int, double> expected;
  for (int c : cells) expected.emplace(c, 0.0);
  for (int x : data) {
    auto it = expected.find(x);
    if (it != expected.end()) it->second += 1.0;
  }
  // At huge epsilon the Laplace draws vanish: released counts are the
  // exact reference counts.
  const auto released =
      streamed.noisy_counts(cells, [](int x) { return x; }, 1e9);
  EXPECT_EQ(records_seen, data.size());
  ASSERT_EQ(released.size(), expected.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_NEAR(released[i], expected.at(cells[i]), 1e-3)
        << "cell " << cells[i];
  }
}

TEST(GroupingAgreement, ExactMinersMatchTheirHistoricalOutputs) {
  // exact_frequent_strings against the unordered_map idiom it replaced.
  std::mt19937 rng(111);
  std::uniform_int_distribution<int> byte(0, 3);
  std::vector<std::string> strings;
  for (int i = 0; i < 4'000; ++i) {
    std::string s;
    for (int j = 0; j < 4; ++j) {
      s.push_back(static_cast<char>('a' + byte(rng)));
    }
    strings.push_back(std::move(s));
  }
  std::unordered_map<std::string, std::size_t> counts;
  for (const auto& s : strings) {
    if (s.size() >= 2) ++counts[s.substr(0, 2)];
  }
  const auto mined = toolkit::exact_frequent_strings(strings, 2, 100.0);
  std::size_t expected_over = 0;
  for (const auto& [value, count] : counts) {
    if (static_cast<double>(count) > 100.0) ++expected_over;
  }
  ASSERT_EQ(mined.size(), expected_over);
  for (const auto& f : mined) {
    ASSERT_TRUE(counts.count(f.value)) << f.value;
    EXPECT_EQ(f.estimated_count,
              static_cast<double>(counts.at(f.value)));
  }
}

TEST(GroupingAgreement, ExactItemsetsMatchTheMapBasedReference) {
  std::mt19937 rng(112);
  std::uniform_int_distribution<int> item(0, 9);
  std::vector<std::vector<int>> data;
  for (int i = 0; i < 800; ++i) {
    std::vector<int> record;
    for (int j = 0; j < 5; ++j) record.push_back(item(rng));
    std::sort(record.begin(), record.end());
    record.erase(std::unique(record.begin(), record.end()), record.end());
    data.push_back(std::move(record));
  }
  std::vector<int> universe;
  for (int i = 0; i < 10; ++i) universe.push_back(i);
  auto mined = toolkit::exact_frequent_itemsets(data, universe, 2, 120.0);
  // The dense-count rewrite must find exactly the sets the naive
  // brute-force count finds (order normalized: the final sort's
  // tie-breaking was always unspecified).
  std::vector<toolkit::FrequentItemset> expected;
  {
    std::vector<std::vector<int>> level1;
    for (int i : universe) level1.push_back({i});
    for (const auto& cand : level1) {
      std::size_t support = 0;
      for (const auto& record : data) {
        if (std::includes(record.begin(), record.end(), cand.begin(),
                          cand.end())) {
          ++support;
        }
      }
      if (support != 0 && static_cast<double>(support) > 120.0) {
        expected.push_back(
            toolkit::FrequentItemset{cand, static_cast<double>(support)});
      }
    }
  }
  const auto only_singletons = [](const toolkit::FrequentItemset& f) {
    return f.items.size() == 1;
  };
  std::vector<toolkit::FrequentItemset> mined1;
  for (const auto& f : mined) {
    if (only_singletons(f)) mined1.push_back(f);
  }
  const auto by_items = [](const toolkit::FrequentItemset& a,
                           const toolkit::FrequentItemset& b) {
    return a.items < b.items;
  };
  std::sort(mined1.begin(), mined1.end(), by_items);
  std::sort(expected.begin(), expected.end(), by_items);
  ASSERT_EQ(mined1.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(mined1[i].items, expected[i].items);
    EXPECT_EQ(mined1[i].estimated_count, expected[i].estimated_count);
  }
}

}  // namespace
}  // namespace dpnet::core
