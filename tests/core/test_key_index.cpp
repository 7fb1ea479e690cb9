// The key index behind partition and both noisy_counts forms
// (detail::KeyIndex): a list of consecutive ascending integers resolves
// a key by subtraction, every other list through a GroupTable.  These
// tests pin the offset path at its edges — descending and gapped lists,
// one key, negative bases, bool and std::uint8_t keys, runs that start
// at the type's minimum or end at its maximum — against a linear search
// of the list, and check that partition and noisy_counts keep, tally and
// drop rows exactly as the list says.  The UBSan job runs them, so an
// overflowing offset would be reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/queryable.hpp"

namespace dpnet::core {
namespace {

/// Slot of `k` by linear search of `keys`, or kNoSlot.
template <typename K>
std::uint32_t listed_slot(const std::vector<K>& keys, K k) {
  const auto it = std::find(keys.begin(), keys.end(), k);
  return it == keys.end() ? grouping::kNoSlot
                          : static_cast<std::uint32_t>(it - keys.begin());
}

/// Every key, its neighbours (where the type has them), zero and the
/// type's extremes.
template <typename K>
std::vector<K> probes_around(const std::vector<K>& keys) {
  using L = std::numeric_limits<K>;
  std::vector<K> probes = {L::min(), L::max(), K{}};
  for (const K k : keys) {
    probes.push_back(k);
    if (k != L::min()) probes.push_back(static_cast<K>(k - 1));
    if (k != L::max()) probes.push_back(static_cast<K>(k + 1));
  }
  return probes;
}

template <typename K>
void expect_index_matches_list(const std::vector<K>& keys) {
  const detail::KeyIndex index(keys, "test");
  for (const K k : probes_around(keys)) {
    EXPECT_EQ(index.find(k), listed_slot(keys, k))
        << "key " << +k << " in a list of " << keys.size() << " from "
        << +keys.front();
  }
}

TEST(KeyIndex, FindsExactlyTheListedIntKeys) {
  using L = std::numeric_limits<int>;
  const std::vector<std::vector<int>> lists = {
      {5, 6, 7, 8},                         // a run
      {-3, -2, -1, 0, 1},                   // a run from a negative base
      {8, 7, 6, 5},                         // descending
      {1, 2, 4, 5},                         // gapped
      {0, 2},                               // gapped by one
      {42},                                 // one key
      {L::max() - 2, L::max() - 1, L::max()},  // a run ending at max
      {L::min(), L::min() + 1, L::min() + 2},  // a run from min
      {L::min(), L::max()},                 // the extremes, gapped
      {L::max(), L::min()},                 // and descending
  };
  for (const auto& keys : lists) expect_index_matches_list(keys);
}

TEST(KeyIndex, FindsExactlyTheListedKeysOfOtherIntegerTypes) {
  using I64 = std::numeric_limits<std::int64_t>;
  using U64 = std::numeric_limits<std::uint64_t>;
  expect_index_matches_list<std::int64_t>({I64::max() - 1, I64::max()});
  expect_index_matches_list<std::int64_t>({I64::min(), I64::min() + 1});
  expect_index_matches_list<std::int64_t>({-1, 0, 1});
  expect_index_matches_list<std::uint64_t>({U64::max() - 1, U64::max()});
  expect_index_matches_list<std::uint64_t>({0, 1, 2});
  expect_index_matches_list<std::int8_t>({-128, -127, -126});
  expect_index_matches_list<std::int8_t>({125, 126, 127});
  expect_index_matches_list<std::uint16_t>({65534, 65535});

  std::vector<std::uint8_t> all_bytes(256);
  std::iota(all_bytes.begin(), all_bytes.end(), std::uint8_t{0});
  expect_index_matches_list(all_bytes);
  expect_index_matches_list<std::uint8_t>({250, 251, 252, 253, 254, 255});
  expect_index_matches_list<std::uint8_t>({3, 2});
  expect_index_matches_list<std::uint8_t>({0, 255});
  expect_index_matches_list<std::uint8_t>({7});

  expect_index_matches_list<bool>({false, true});
  expect_index_matches_list<bool>({true, false});
  expect_index_matches_list<bool>({true});
  expect_index_matches_list<bool>({false});
}

TEST(KeyIndex, RejectsRepeatedKeysOnEitherPath) {
  using IntIndex = detail::KeyIndex<int>;
  EXPECT_THROW(IntIndex(std::vector<int>{3, 3}, "t"), InvalidQueryError);
  EXPECT_THROW(IntIndex(std::vector<int>{1, 2, 3, 2}, "t"),
               InvalidQueryError);
  EXPECT_THROW(detail::KeyIndex<bool>(std::vector<bool>{true, true}, "t"),
               InvalidQueryError);
  EXPECT_NO_THROW(IntIndex(std::vector<int>{2, 1, 0}, "t"));
}

Queryable<int> rows_of(std::vector<int> rows) {
  return Queryable<int>(std::move(rows), std::make_shared<RootBudget>(1e18),
                        std::make_shared<NoiseSource>(17));
}

/// Partition's parts and a near-noiseless noisy_counts, at 1 and 4
/// threads, against the rows a linear search of `keys` keeps.
template <typename K, typename KeyF>
void expect_rows_split_by_list(const std::vector<int>& rows, KeyF key,
                               const std::vector<K>& keys) {
  std::vector<std::vector<int>> want(keys.size());
  for (const int x : rows) {
    const std::uint32_t slot = listed_slot<K>(keys, key(x));
    if (slot != grouping::kNoSlot) want[slot].push_back(x);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const exec::ExecPolicy policy{threads};
    const auto q = rows_of(rows);
    const auto parts = q.partition(keys, key, policy);
    const auto counts = q.noisy_counts(keys, key, 1e9, policy);
    ASSERT_EQ(counts.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(parts.at(keys[i]).data_unsafe(), want[i])
          << "key " << +keys[i] << " threads=" << threads;
      EXPECT_EQ(std::llround(counts[i]),
                static_cast<long long>(want[i].size()))
          << "key " << +keys[i] << " threads=" << threads;
    }
  }
}

TEST(KeyIndex, PartitionAndNoisyCountsDropExactlyTheUnlistedRows) {
  using L = std::numeric_limits<int>;
  std::vector<int> rows;
  for (int i = 0; i < 3000; ++i) rows.push_back(i % 23 - 11);
  rows.insert(rows.end(), {L::min(), L::max(), L::max() - 1, L::min() + 1});
  const auto same = [](int x) { return x; };
  for (const auto& keys : std::vector<std::vector<int>>{
           {-4, -3, -2, -1, 0, 1},
           {3, 2, 1},
           {-11, -9, 5},
           {7},
           {L::max() - 1, L::max()},
           {L::min(), L::min() + 1}}) {
    expect_rows_split_by_list(rows, same, keys);
  }

  const auto byte = [](int x) {
    return static_cast<std::uint8_t>(static_cast<unsigned>(x) * 37u);
  };
  std::vector<std::uint8_t> high(16);
  std::iota(high.begin(), high.end(), std::uint8_t{240});
  expect_rows_split_by_list(rows, byte, high);
  expect_rows_split_by_list<std::uint8_t>(rows, byte, {9, 8, 7});

  const auto flag = [](int x) { return x % 3 == 0; };
  expect_rows_split_by_list<bool>(rows, flag, {false, true});
  expect_rows_split_by_list<bool>(rows, flag, {true});
}

TEST(KeyIndex, GridDropsRowsOutsideARunEndingAtMax) {
  using L = std::numeric_limits<int>;
  std::vector<int> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(i % 2 == 0 ? L::max() - i % 5 : L::min() + i % 5);
  }
  const std::vector<int> outer = {L::max() - 2, L::max() - 1, L::max()};
  const std::vector<int> inner = {0, 1, 2, 3};
  const auto q = rows_of(values);
  const auto grid = q.noisy_counts(
      outer, [](int x) { return x; }, inner,
      [](int x) { return static_cast<int>(static_cast<unsigned>(x) % 4); },
      1e9, exec::ExecPolicy{4});
  ASSERT_EQ(grid.size(), outer.size());
  for (std::size_t o = 0; o < outer.size(); ++o) {
    for (std::size_t i = 0; i < inner.size(); ++i) {
      const auto want = std::count_if(values.begin(), values.end(), [&](int x) {
        return x == outer[o] && static_cast<unsigned>(x) % 4 == i;
      });
      EXPECT_EQ(std::llround(grid[o][i]), want) << o << "," << i;
    }
  }
}

}  // namespace
}  // namespace dpnet::core
