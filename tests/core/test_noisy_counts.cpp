// noisy_counts() is partition(keys, key) followed by one noisy_count per
// part, released in one pass.  These tests pin the equivalence at 1, 4
// and 8 threads — released values byte for byte, the canonical ledger,
// the journal's charge events and the guard's row count — and the
// all-or-nothing release: a refusal, a tripped guard and an armed
// core.release.charge failpoint each charge nothing, a refusal is
// journaled once, and a failing executor after the charge still
// releases every cell.  The grid form, partition by an outer key followed by
// one noisy_counts per part, is pinned the same way, together with its
// empty lists (which still take the parts' child ids), its inner key
// (run only on rows whose outer key is listed) and its one span.  They
// also pin partition's policy-chunked classification: the same parts, in
// the same row order, at any thread count, each allocated at its exact
// size under a parallel policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/exec/executor.hpp"
#include "core/failpoint.hpp"
#include "core/guard.hpp"
#include "core/obs/journal.hpp"
#include "core/queryable.hpp"

namespace dpnet::core {
namespace {

const std::vector<std::size_t> kThreadCounts = {1, 4, 8};

std::vector<int> spread_values(int n) {
  std::vector<int> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back((i * 7919) % 1009);
  return v;
}

std::vector<int> iota_keys(int n) {
  std::vector<int> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), 0);
  return keys;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

using LedgerRow = std::tuple<std::uint64_t, double, std::string>;
using EventRow = std::tuple<std::uint64_t, double, std::string>;

/// What one release run leaves behind.
struct Run {
  std::vector<double> values;
  std::vector<LedgerRow> ledger;    // canonical order
  std::vector<EventRow> charges;    // journal charge events, canonical
  std::size_t refusals = 0;         // journal refusal events
  std::uint64_t guard_rows = 0;
  double spent = 0.0;
};

/// Runs `release` over a fresh audited dataset under a row-counting
/// guard and collects its values, ledger, journal events and guard rows.
template <typename Release>
Run run_release(std::size_t threads, double budget_total,
                const Release& release) {
  auto audit = std::make_shared<AuditingBudget>(
      std::make_shared<RootBudget>(budget_total));
  const Queryable<int> data(spread_values(20'000), audit,
                            std::make_shared<NoiseSource>(2024));
  auto& journal = obs::EventJournal::global();
  const std::uint64_t first_event = journal.appended();
  QueryGuard guard(QueryGuard::Options{.max_total_rows = 1ULL << 40});
  Run run;
  {
    const GuardScope scope(guard);
    run.values = release(data, exec::ExecPolicy{threads});
  }
  run.guard_rows = guard.total_rows();
  run.spent = audit->spent();
  for (const auto& e : audit->canonical_entries()) {
    run.ledger.emplace_back(e.node_id, e.eps, e.label);
  }
  for (const auto& e : journal.canonical_events()) {
    if (e.seq < first_event) continue;
    if (e.kind == obs::EventKind::kCharge) {
      run.charges.emplace_back(e.node_id, e.eps, e.label);
    } else if (e.kind == obs::EventKind::kRefusal) {
      ++run.refusals;
    }
  }
  return run;
}

void expect_same_run(const Run& got, const Run& want, std::size_t threads) {
  EXPECT_TRUE(same_bytes(got.values, want.values)) << "threads=" << threads;
  EXPECT_EQ(got.ledger, want.ledger) << "threads=" << threads;
  EXPECT_EQ(got.charges, want.charges) << "threads=" << threads;
  EXPECT_EQ(got.guard_rows, want.guard_rows) << "threads=" << threads;
  EXPECT_EQ(got.spent, want.spent) << "threads=" << threads;
}

const auto kBucket = [](int x) { return x % 97; };
const auto kNarrow = [](int x) { return x % 5 != 0; };

/// The reference: partition, then one noisy_count per part on the
/// executor.
std::vector<double> partition_then_count(const Queryable<int>& q,
                                         const std::vector<int>& keys,
                                         double eps,
                                         exec::ExecPolicy policy) {
  auto parts = q.partition(keys, kBucket);
  return exec::map_parts(policy, keys, parts,
                         [eps](int, const Queryable<int>& part) {
                           return part.noisy_count(eps);
                         });
}

TEST(NoisyCounts, EqualsPartitionThenCountOverAStreamedChain) {
  // The keys leave some records unlisted (bucket 96) and list a key no
  // record has (1000).
  std::vector<int> keys = iota_keys(96);
  keys.push_back(1000);
  const auto reference = run_release(1, 1e6, [&](const Queryable<int>& q,
                                                 exec::ExecPolicy policy) {
    return partition_then_count(q.where(kNarrow), keys, 0.25, policy);
  });
  ASSERT_EQ(reference.values.size(), keys.size());
  ASSERT_EQ(reference.ledger.size(), 1u);
  for (const std::size_t threads : kThreadCounts) {
    const auto fused = run_release(threads, 1e6, [&](const Queryable<int>& q,
                                                     exec::ExecPolicy policy) {
      return q.where(kNarrow).noisy_counts(keys, kBucket, 0.25, policy);
    });
    expect_same_run(fused, reference, threads);
  }
}

TEST(NoisyCounts, EqualsPartitionThenCountOverStoredRowsInChunks) {
  const std::vector<int> keys = iota_keys(97);
  const auto reference = run_release(1, 1e6, [&](const Queryable<int>& q,
                                                 exec::ExecPolicy policy) {
    return partition_then_count(q, keys, 0.5, policy);
  });
  for (const std::size_t threads : kThreadCounts) {
    const auto chunked = run_release(threads, 1e6, [&](const Queryable<int>& q,
                                                       exec::ExecPolicy policy) {
      return q.noisy_counts(keys, kBucket, 0.5, policy);
    });
    expect_same_run(chunked, reference, threads);
  }
}

TEST(NoisyCounts, EqualsNestedPartitionsInsideExecutorParts) {
  // frequent_strings' shape: an outer partition fanned out on the
  // executor, one histogram per part; plus a second release on the same
  // node, whose child ids must follow the histogram's.
  const std::vector<int> outer = iota_keys(8);
  const std::vector<int> inner = iota_keys(16);
  const auto nested = [&](bool fused) {
    return [&, fused](const Queryable<int>& q, exec::ExecPolicy policy) {
      auto parts = q.partition(outer, [](int x) { return x % 8; }, policy);
      const auto rows = exec::map_parts(
          policy, outer, parts,
          [&inner, fused](int, const Queryable<int>& part) {
            const auto cell = [](int x) { return (x / 8) % 16; };
            std::vector<double> counts;
            if (fused) {
              counts = part.noisy_counts(inner, cell, 0.125);
            } else {
              auto cells = part.partition(inner, cell);
              for (int k : inner) {
                counts.push_back(cells.at(k).noisy_count(0.125));
              }
            }
            counts.push_back(
                part.where([](int x) { return x > 500; }).noisy_count(0.125));
            return counts;
          });
      std::vector<double> flat;
      for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());
      return flat;
    };
  };
  const auto reference = run_release(1, 1e6, nested(false));
  ASSERT_EQ(reference.values.size(), outer.size() * (inner.size() + 1));
  for (const std::size_t threads : kThreadCounts) {
    expect_same_run(run_release(threads, 1e6, nested(true)), reference,
                    threads);
  }
}

TEST(NoisyCounts, ChargesEveryInputOfAConcatOnce) {
  const std::vector<int> keys = iota_keys(97);
  const auto two_inputs = [&](bool fused) {
    return [&, fused](const Queryable<int>& q, exec::ExecPolicy policy) {
      const auto other = Queryable<int>(
          spread_values(500), std::make_shared<RootBudget>(10.0),
          std::make_shared<NoiseSource>(7));
      const auto both = q.concat(other);
      return fused ? both.noisy_counts(keys, kBucket, 0.5, policy)
                   : partition_then_count(both, keys, 0.5, policy);
    };
  };
  const auto reference = run_release(1, 1e6, two_inputs(false));
  EXPECT_EQ(reference.spent, 0.5);
  for (const std::size_t threads : kThreadCounts) {
    expect_same_run(run_release(threads, 1e6, two_inputs(true)), reference,
                    threads);
  }
}

TEST(NoisyCounts, RecordsOneSpanWithOneOutputPerKey) {
  const std::vector<int> values = spread_values(1000);
  const auto kept = std::count_if(values.begin(), values.end(), kNarrow);
  const auto data = Queryable<int>(values, std::make_shared<RootBudget>(1e6),
                                   std::make_shared<NoiseSource>(5));
  QueryTrace trace;
  {
    const TraceSession session(trace);
    std::ignore = data.where(kNarrow).noisy_counts(iota_keys(97), kBucket,
                                                   0.5);
  }
  ASSERT_EQ(trace.roots().size(), 1u);
  const TraceSpan& span = trace.roots().front();
  EXPECT_EQ(span.op, "noisy_counts");
  EXPECT_EQ(span.mechanism, "laplace");
  EXPECT_EQ(span.input_rows, kept);
  EXPECT_EQ(span.output_rows, 97);
  EXPECT_DOUBLE_EQ(span.eps_charged, 0.5);
  ASSERT_EQ(span.children.size(), 1u);  // the fused where
  EXPECT_EQ(span.children.front().op, "where");
  EXPECT_DOUBLE_EQ(trace.total_eps_charged(), 0.5);
}

TEST(NoisyCounts, RefusalChargesNothingAndIsJournaledOnce) {
  const std::vector<int> keys = iota_keys(97);
  for (const std::size_t threads : kThreadCounts) {
    const auto refused = run_release(
        threads, 0.25, [&](const Queryable<int>& q, exec::ExecPolicy policy) {
          EXPECT_THROW(std::ignore = q.noisy_counts(keys, kBucket, 0.5,
                                                    policy),
                       BudgetExhaustedError);
          return std::vector<double>{};
        });
    EXPECT_EQ(refused.spent, 0.0);
    EXPECT_TRUE(refused.ledger.empty());
    EXPECT_TRUE(refused.charges.empty());
    EXPECT_EQ(refused.refusals, 1u) << "threads=" << threads;
  }
}

TEST(NoisyCounts, TrippedGuardChargesNothing) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const Queryable<int> data(spread_values(5000), budget,
                            std::make_shared<NoiseSource>(6));
  for (const std::size_t threads : kThreadCounts) {
    QueryGuard guard;
    guard.cancel();
    const GuardScope scope(guard);
    EXPECT_THROW(std::ignore = data.noisy_counts(iota_keys(97), kBucket, 0.5,
                                                 exec::ExecPolicy{threads}),
                 QueryAbortedError);
  }
  EXPECT_EQ(budget->spent(), 0.0);
}

TEST(NoisyCounts, ArmedReleaseChargeFailpointChargesNothing) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const Queryable<int> data(spread_values(5000), budget,
                            std::make_shared<NoiseSource>(7));
  {
    failpoint::ScopedFailpoint fp("core.release.charge", [](std::string_view) {
      throw std::runtime_error("injected");
    });
    EXPECT_THROW(std::ignore = data.noisy_counts(iota_keys(97), kBucket, 0.5,
                                                 exec::ExecPolicy{4}),
                 std::runtime_error);
  }
  EXPECT_EQ(budget->spent(), 0.0);
  std::ignore = data.noisy_counts(iota_keys(97), kBucket, 0.5);
  EXPECT_EQ(budget->spent(), 0.5);
}

TEST(NoisyCounts, RejectsDuplicateKeysAndContainsTheKeyFunction) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const Queryable<int> data(spread_values(100), budget,
                            std::make_shared<NoiseSource>(8));
  EXPECT_THROW(std::ignore = data.noisy_counts(std::vector<int>{1, 2, 1},
                                               kBucket, 0.5),
               InvalidQueryError);
  EXPECT_THROW(std::ignore = data.noisy_counts(
                   iota_keys(4),
                   [](int x) -> int {
                     if (x > 50) throw std::runtime_error("record 51");
                     return x % 4;
                   },
                   0.5, exec::ExecPolicy{4}),
               AnalystCodeError);
  EXPECT_TRUE(data.noisy_counts(std::vector<int>{}, kBucket, 0.5).empty());
  EXPECT_EQ(budget->spent(), 0.0);
}

// ---------------------------------------------------------------------
// The grid form: partition by an outer key, then one noisy_counts over
// the inner keys on every part, in one pass
// ---------------------------------------------------------------------

const auto kOuter = [](int x) { return x % 11; };
const auto kInner = [](int x) { return x; };

std::vector<double> flatten(const std::vector<std::vector<double>>& rows) {
  std::vector<double> flat;
  for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());
  return flat;
}

/// The grid (or its reference, partition then one histogram per part on
/// the executor) over `data` or a where over it, then a release on a new
/// child of the same node, whose id follows the grid's part ids, and one
/// on the node itself.
auto grid_then_more(const std::vector<int>& outer,
                    const std::vector<int>& inner, bool narrow, bool fused) {
  return [=](const Queryable<int>& data, exec::ExecPolicy policy) {
    const Queryable<int> q = narrow ? data.where(kNarrow) : data;
    std::vector<double> values;
    if (fused) {
      values = flatten(
          q.noisy_counts(outer, kOuter, inner, kInner, 0.25, policy));
    } else {
      auto parts = q.partition(outer, kOuter, policy);
      values = flatten(exec::map_parts(
          policy, outer, parts, [&inner](int, const Queryable<int>& part) {
            return part.noisy_counts(inner, kInner, 0.25);
          }));
    }
    values.push_back(q.where([](int x) { return x > 500; }).noisy_count(0.25));
    values.push_back(q.noisy_count(0.25));
    return values;
  };
}

TEST(NoisyCounts, GridEqualsPartitionThenHistogramPerPart) {
  // Two consecutive runs (10,000 cells, so the draws run in chunks), and
  // two gapped, unordered lists; outer key 10 is never listed, and some
  // listed keys have no records.
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> grids = {
      {iota_keys(10), iota_keys(1000)},
      {{9, 7, 5, 3, 1, 40}, {12, 0, 6, 3, 99, 2000}},
  };
  for (const auto& [outer, inner] : grids) {
    for (const bool narrow : {true, false}) {
      const auto reference =
          run_release(1, 1e6, grid_then_more(outer, inner, narrow, false));
      ASSERT_EQ(reference.values.size(), outer.size() * inner.size() + 2);
      ASSERT_EQ(reference.ledger.size(), 3u);
      for (const std::size_t threads : kThreadCounts) {
        expect_same_run(
            run_release(threads, 1e6,
                        grid_then_more(outer, inner, narrow, true)),
            reference, threads);
      }
    }
  }
}

TEST(NoisyCounts, GridOfAnEmptyListChargesNothingButTakesThePartIds) {
  const std::vector<int> outer = iota_keys(6);
  const auto later = [](const Queryable<int>& q) {
    return std::vector<double>{
        q.where([](int x) { return x % 2 == 0; }).noisy_count(0.5)};
  };
  const auto after_partition = run_release(
      1, 1e6, [&](const Queryable<int>& q, exec::ExecPolicy policy) {
        std::ignore = q.partition(outer, kOuter, policy);
        return later(q);
      });
  const auto untouched = run_release(
      1, 1e6, [&](const Queryable<int>& q, exec::ExecPolicy) {
        return later(q);
      });
  for (const std::size_t threads : kThreadCounts) {
    const auto empty_inner = run_release(
        threads, 1e6, [&](const Queryable<int>& q, exec::ExecPolicy policy) {
          EXPECT_EQ(q.noisy_counts(outer, kOuter, std::vector<int>{}, kInner,
                                   0.5, policy),
                    std::vector<std::vector<double>>(outer.size()));
          return later(q);
        });
    expect_same_run(empty_inner, after_partition, threads);
    const auto empty_outer = run_release(
        threads, 1e6, [&](const Queryable<int>& q, exec::ExecPolicy policy) {
          EXPECT_TRUE(q.noisy_counts(std::vector<int>{}, kOuter,
                                     iota_keys(5), kInner, 0.5, policy)
                          .empty());
          return later(q);
        });
    expect_same_run(empty_outer, untouched, threads);
  }
}

TEST(NoisyCounts, GridRunsTheInnerKeyOnlyOnListedOuterRows) {
  const std::vector<int> values = spread_values(20'000);
  const Queryable<int> data(values, std::make_shared<RootBudget>(1e6),
                            std::make_shared<NoiseSource>(11));
  const std::vector<int> outer = {0, 2, 4, 6, 8};
  const auto listed = [](int x) {
    return kOuter(x) % 2 == 0 && kOuter(x) != 10;
  };
  for (const std::size_t threads : kThreadCounts) {
    std::atomic<std::size_t> calls{0};
    const auto rows = data.noisy_counts(
        outer, kOuter, iota_keys(1009),
        [&](int x) {
          if (!listed(x)) throw std::logic_error("unlisted outer key");
          calls.fetch_add(1);
          return x;
        },
        0.5, exec::ExecPolicy{threads});
    EXPECT_EQ(rows.size(), outer.size());
    EXPECT_EQ(calls.load(), static_cast<std::size_t>(std::count_if(
                                values.begin(), values.end(), listed)))
        << "threads=" << threads;
  }
}

TEST(NoisyCounts, GridRecordsOneSpanWithEveryCell) {
  const std::vector<int> values = spread_values(1000);
  const auto kept = std::count_if(values.begin(), values.end(), kNarrow);
  const auto data = Queryable<int>(values, std::make_shared<RootBudget>(1e6),
                                   std::make_shared<NoiseSource>(12));
  QueryTrace trace;
  {
    const TraceSession session(trace);
    std::ignore = data.where(kNarrow).noisy_counts(
        iota_keys(10), kOuter, iota_keys(13), kInner, 0.5);
  }
  ASSERT_EQ(trace.roots().size(), 1u);
  const TraceSpan& span = trace.roots().front();
  EXPECT_EQ(span.op, "noisy_counts");
  EXPECT_EQ(span.input_rows, kept);
  EXPECT_EQ(span.output_rows, 130);
  EXPECT_DOUBLE_EQ(span.eps_charged, 0.5);
  ASSERT_EQ(span.children.size(), 1u);  // the fused where
  EXPECT_EQ(span.children.front().op, "where");
}

TEST(NoisyCounts, GridRefusalChargesNothingAndIsJournaledOnce) {
  for (const std::size_t threads : kThreadCounts) {
    const auto refused = run_release(
        threads, 0.25, [&](const Queryable<int>& q, exec::ExecPolicy policy) {
          EXPECT_THROW(std::ignore = q.noisy_counts(iota_keys(10), kOuter,
                                                    iota_keys(13), kInner,
                                                    0.5, policy),
                       BudgetExhaustedError);
          return std::vector<double>{};
        });
    EXPECT_EQ(refused.spent, 0.0);
    EXPECT_TRUE(refused.ledger.empty());
    EXPECT_TRUE(refused.charges.empty());
    EXPECT_EQ(refused.refusals, 1u) << "threads=" << threads;
  }
}

TEST(NoisyCounts, GridTrippedGuardOrArmedFailpointChargesNothing) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const Queryable<int> data(spread_values(5000), budget,
                            std::make_shared<NoiseSource>(13));
  const auto grid = [&](std::size_t threads) {
    return data.noisy_counts(iota_keys(10), kOuter, iota_keys(1000), kInner,
                             0.5, exec::ExecPolicy{threads});
  };
  for (const std::size_t threads : kThreadCounts) {
    QueryGuard guard;
    guard.cancel();
    const GuardScope scope(guard);
    EXPECT_THROW(std::ignore = grid(threads), QueryAbortedError);
  }
  {
    failpoint::ScopedFailpoint fp("core.release.charge", [](std::string_view) {
      throw std::runtime_error("injected");
    });
    EXPECT_THROW(std::ignore = grid(4), std::runtime_error);
  }
  EXPECT_EQ(budget->spent(), 0.0);
  std::ignore = grid(4);
  EXPECT_EQ(budget->spent(), 0.5);
}

TEST(NoisyCounts, DrawsAfterTheChargeSurviveAFailingExecutor) {
  // 10,000 cells in either form, so at 4 threads the draws run as
  // executor tasks.  Each form reads its own where, whose rows stream
  // into a one-pass tally, so the armed failpoint meets only the draws,
  // which follow the charge: they must still release the unfaulted
  // values.
  const auto releases = [](const Queryable<int>& q, exec::ExecPolicy policy) {
    std::vector<double> values = flatten(q.where(kNarrow).noisy_counts(
        iota_keys(10), kOuter, iota_keys(1000), kInner, 0.25, policy));
    const std::vector<double> counts =
        q.where(kNarrow).noisy_counts(iota_keys(10'000), kInner, 0.25, policy);
    values.insert(values.end(), counts.begin(), counts.end());
    return values;
  };
  const auto clean = run_release(4, 1e6, releases);
  ASSERT_EQ(clean.values.size(), 20'000u);
  std::atomic<std::size_t> fired{0};
  const auto faulted = [&] {
    failpoint::ScopedFailpoint fp("exec.worker_task",
                                  [&fired](std::string_view) {
                                    fired.fetch_add(1);
                                    throw std::runtime_error("injected");
                                  });
    return run_release(4, 1e6, releases);
  }();
  EXPECT_GT(fired.load(), 0u);
  expect_same_run(faulted, clean, 4);
}

TEST(NoisyCounts, GridRejectsDuplicateKeysInEitherList) {
  auto budget = std::make_shared<RootBudget>(1.0);
  const Queryable<int> data(spread_values(100), budget,
                            std::make_shared<NoiseSource>(14));
  EXPECT_THROW(std::ignore = data.noisy_counts(std::vector<int>{1, 2, 1},
                                               kOuter, iota_keys(3), kInner,
                                               0.5),
               InvalidQueryError);
  EXPECT_THROW(std::ignore = data.noisy_counts(iota_keys(3), kOuter,
                                               std::vector<int>{4, 4},
                                               kInner, 0.5),
               InvalidQueryError);
  EXPECT_EQ(budget->spent(), 0.0);
}

// ---------------------------------------------------------------------
// partition's policy-chunked classification (sequentially, one in-order
// pass; under a parallel policy, chunks and exactly-sized parts)
// ---------------------------------------------------------------------

/// Each part's rows, in keys order.
std::vector<std::vector<int>> part_rows(const Queryable<int>& q,
                                        const std::vector<int>& keys,
                                        int buckets,
                                        exec::ExecPolicy policy) {
  const auto parts = q.partition(
      keys, [buckets](int x) { return (x * 31) % buckets; }, policy);
  std::vector<std::vector<int>> out;
  for (int k : keys) {
    const std::vector<int>& rows = parts.at(k).data_unsafe();
    if (policy.threads > 1) {
      EXPECT_EQ(rows.capacity(), rows.size()) << "part " << k << " not exact";
    }
    out.push_back(rows);
  }
  return out;
}

TEST(PartitionChunks, SamePartsInRowOrderAtEveryThreadCount) {
  // 40, 300 and 70,000 keys exercise the one-, two- and four-byte slot
  // arrays; the last key of each list has no records, and bucket
  // `buckets - 1` is not listed.
  std::vector<int> values(150'000);
  std::iota(values.begin(), values.end(), 0);
  for (const int buckets : {41, 301, 70'001}) {
    std::vector<int> keys = iota_keys(buckets - 1);
    keys.push_back(buckets + 5);
    std::vector<std::vector<int>> expected(keys.size());
    for (int x : values) {
      const int b = (x * 31) % buckets;
      if (b < buckets - 1) expected[static_cast<std::size_t>(b)].push_back(x);
    }
    for (const std::size_t threads : kThreadCounts) {
      const Queryable<int> q(values, std::make_shared<RootBudget>(1.0),
                             std::make_shared<NoiseSource>(9));
      EXPECT_EQ(part_rows(q, keys, buckets, exec::ExecPolicy{threads}),
                expected)
          << "buckets=" << buckets << " threads=" << threads;
    }
  }
}

TEST(PartitionChunks, StreamedAndStoredInputsGiveTheSameParts) {
  const std::vector<int> keys = iota_keys(50);
  const Queryable<int> q(spread_values(30'000),
                         std::make_shared<RootBudget>(1.0),
                         std::make_shared<NoiseSource>(10));
  const auto narrow = q.where(kNarrow);
  // First demand: the where streams through one fused pass.
  const auto parts = narrow.partition(keys, [](int x) { return x % 50; });
  EXPECT_FALSE(narrow.plan_node().holds_rows());
  for (const std::size_t threads : kThreadCounts) {
    // Later demands read its stored rows in chunks.
    const auto chunked = narrow.partition(
        keys, [](int x) { return x % 50; }, exec::ExecPolicy{threads});
    for (int k : keys) {
      EXPECT_EQ(chunked.at(k).data_unsafe(), parts.at(k).data_unsafe())
          << "part " << k << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dpnet::core
