// Radix-partitioned two-phase parallel grouping: output must be
// byte-identical to the sequential path at any thread count — group
// order, item order, key values, and every noisy release downstream.
// Thread counts 1/4/8 are pinned for every rewired operator.
#include "core/exec/group_aggregate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/exec/executor.hpp"
#include "core/queryable.hpp"

namespace dpnet::core {
namespace {

const std::vector<std::size_t> kThreadCounts = {1, 4, 8};

std::vector<std::pair<int, int>> flow_like_rows(std::size_t n,
                                                std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> hot(0, 30);     // heavy keys
  std::uniform_int_distribution<int> cold(0, 5000);  // long tail
  std::uniform_int_distribution<int> payload(0, 1 << 20);
  std::vector<std::pair<int, int>> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int key = (i % 4 == 0) ? cold(rng) : hot(rng);
    rows[i] = {key, payload(rng)};
  }
  return rows;
}

template <typename K, typename V>
void expect_same_groups(const std::vector<Group<K, V>>& got,
                        const std::vector<Group<K, V>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t g = 0; g < want.size(); ++g) {
    EXPECT_EQ(got[g].key, want[g].key) << "group " << g;
    EXPECT_EQ(got[g].items, want[g].items) << "group " << g;
  }
}

TEST(ParallelGroupBy, ByteIdenticalToSequentialAtEveryThreadCount) {
  const auto rows = flow_like_rows(40'000, 77);
  const auto key = [](const std::pair<int, int>& r) { return r.first; };
  const auto sequential =
      exec::parallel_group_by(exec::ExecPolicy{1}, rows, key);
  for (const std::size_t threads : kThreadCounts) {
    const auto parallel =
        exec::parallel_group_by(exec::ExecPolicy{threads}, rows, key);
    expect_same_groups(parallel, sequential);
  }
}

TEST(ParallelGroupBy, EdgeShapesStayIdentical) {
  const auto key = [](const std::pair<int, int>& r) { return r.first; };
  const std::vector<std::vector<std::pair<int, int>>> shapes = {
      {},                                  // empty input
      {{3, 9}},                            // single row
      {{1, 1}, {1, 2}, {1, 3}, {1, 4}},    // one group
      flow_like_rows(7, 5),                // fewer rows than threads
  };
  for (const auto& rows : shapes) {
    const auto sequential =
        exec::parallel_group_by(exec::ExecPolicy{1}, rows, key);
    for (const std::size_t threads : kThreadCounts) {
      const auto parallel =
          exec::parallel_group_by(exec::ExecPolicy{threads}, rows, key);
      expect_same_groups(parallel, sequential);
    }
  }
}

Queryable<std::pair<int, int>> protect_rows(std::uint64_t seed) {
  return Queryable<std::pair<int, int>>(
      flow_like_rows(6'000, 13), std::make_shared<RootBudget>(1e6),
      std::make_shared<NoiseSource>(seed));
}

TEST(ParallelGroupBy, QueryableOverloadMatchesSequentialNoiseExactly) {
  const auto key = [](const std::pair<int, int>& r) { return r.first % 64; };
  // Fresh queryables per run: plan-node child ordinals must line up.
  const double sequential =
      protect_rows(21).group_by(key).noisy_count(0.5);
  for (const std::size_t threads : kThreadCounts) {
    const double parallel =
        protect_rows(21).group_by(key, exec::ExecPolicy{threads})
            .noisy_count(0.5);
    // Bitwise equality: same plan-node id, same noise draw, same count.
    EXPECT_EQ(parallel, sequential) << "threads=" << threads;
  }
  // And the grouped rows themselves are identical.
  const auto want = protect_rows(21).group_by(key).data_unsafe();
  for (const std::size_t threads : kThreadCounts) {
    expect_same_groups(
        protect_rows(21).group_by(key, exec::ExecPolicy{threads})
            .data_unsafe(),
        want);
  }
}

/// Fans a pipeline out over a 12-way partition under `threads` workers
/// and returns one noisy number per part.  Every rewired operator is
/// exercised inside the fan-out, so this pins parallel-vs-sequential
/// byte-identity for each of them.
std::vector<double> rewired_operator_pipeline(std::size_t threads,
                                              std::uint64_t seed) {
  auto q = protect_rows(seed);
  std::vector<int> keys;
  for (int k = 0; k < 12; ++k) keys.push_back(k);
  auto parts = q.partition(
      keys, [](const std::pair<int, int>& r) { return r.first % 12; });
  return exec::map_parts(
      exec::ExecPolicy{threads}, keys, parts,
      [](int, const Queryable<std::pair<int, int>>& part) {
        using Row = std::pair<int, int>;
        const auto key = [](const Row& r) { return r.second % 9; };
        double acc = 0.0;
        acc += part.distinct().noisy_count(0.25);
        acc += part.group_by(key).noisy_count(0.25);
        acc += part.group_by_spans(key, [](const Row& r) {
                     return r.second % 31 == 0;
                   })
                   .noisy_count(0.25);
        acc += part.set_union(part.where([](const Row& r) {
                     return r.second % 2 == 0;
                   }))
                   .noisy_count(0.125);
        acc += part.except(part.where([](const Row& r) {
                     return r.second % 3 == 0;
                   }))
                   .noisy_count(0.125);
        acc += part.intersect(part.where([](const Row& r) {
                     return r.second % 5 != 0;
                   }))
                   .noisy_count(0.125);
        acc += part.join(
                       part.select([](const Row& r) { return r.second; }),
                       [](const Row& r) { return r.first % 6; },
                       [](int y) { return y % 6; },
                       [](const Row& r, int y) { return r.second + y; })
                   .noisy_count(0.125);
        return acc;
      });
}

TEST(ParallelGroupBy, RewiredOperatorsByteIdenticalUnderExecutorFanOut) {
  const auto sequential = rewired_operator_pipeline(1, 31);
  ASSERT_EQ(sequential.size(), 12u);
  for (const std::size_t threads : kThreadCounts) {
    const auto parallel = rewired_operator_pipeline(threads, 31);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[i], sequential[i])
          << "part " << i << " diverged at threads=" << threads;
    }
  }
}

// noisy_counts' chunked tally over stored rows (it absorbed the old
// parallel histogram feed): same counts, same noise, at any thread count.
TEST(ParallelStreamFeed, ReleaseByteIdenticalAcrossThreadCounts) {
  const auto rows = flow_like_rows(50'000, 99);
  std::vector<int> cells;
  for (int c = 0; c < 40; ++c) cells.push_back(c);
  const auto cell_of = [](const std::pair<int, int>& r) {
    return r.first % 48;  // cells 40..47 fall outside the universe
  };
  auto run = [&](std::size_t threads) {
    const Queryable<std::pair<int, int>> q(
        rows, std::make_shared<RootBudget>(1e6),
        std::make_shared<NoiseSource>(7));
    return q.noisy_counts(cells, cell_of, 0.5, exec::ExecPolicy{threads});
  };
  const auto sequential = run(1);
  for (const std::size_t threads : kThreadCounts) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t c = 0; c < sequential.size(); ++c) {
      // Bitwise: identical counts and identical per-cell noise forks.
      EXPECT_EQ(parallel[c], sequential[c]) << "cell " << c;
    }
  }
}

}  // namespace
}  // namespace dpnet::core
