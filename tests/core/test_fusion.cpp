// Fused narrow operators (docs/architecture.md, "Fused narrow
// operators"): where/select/select_many run inside the one pass of the
// operator consuming them.  These tests pin what that must and must not
// change: no input row is copied on a fused path, every consumer releases
// the same values, records the same spans, ledger and guard rows as when
// its narrow inputs were stored first, a shared narrow node runs its
// chain at most twice, concurrent demands record one span, and sources
// can share one row buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/audit.hpp"
#include "core/exec/executor.hpp"
#include "core/guard.hpp"
#include "core/queryable.hpp"
#include "core/trace.hpp"

namespace dpnet::core {
namespace {

/// A row that counts its copies (moves are free and uncounted).
struct Counted {
  static inline std::atomic<int> copies{0};

  int v = 0;

  explicit Counted(int x) : v(x) {}
  Counted(const Counted& other) : v(other.v) { copies.fetch_add(1); }
  Counted& operator=(const Counted& other) {
    v = other.v;
    copies.fetch_add(1);
    return *this;
  }
  Counted(Counted&&) noexcept = default;
  Counted& operator=(Counted&&) noexcept = default;
};

std::vector<int> iota_vec(int lo, int hi) {
  std::vector<int> v(static_cast<std::size_t>(hi - lo));
  std::iota(v.begin(), v.end(), lo);
  return v;
}

Queryable<Counted> counted_rows(int n) {
  std::vector<Counted> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rows.emplace_back(i);
  return {std::move(rows), std::make_shared<RootBudget>(1e9),
          std::make_shared<NoiseSource>(3)};
}

TEST(Fusion, NarrowChainsCopyNoInputRow) {
  const auto rows = counted_rows(1000);
  const auto even = [](const Counted& c) { return c.v % 2 == 0; };

  Counted::copies = 0;
  std::ignore = rows.where(even).noisy_count(1.0);
  EXPECT_EQ(Counted::copies.load(), 0);

  std::ignore = rows.where(even)
                    .select([](const Counted& c) { return c.v; })
                    .noisy_sum(1.0, [](int v) { return v / 1000.0; });
  EXPECT_EQ(Counted::copies.load(), 0);

  std::ignore =
      rows.select_many(
              [](const Counted& c) { return std::vector<int>{c.v, -c.v}; },
              2)
          .noisy_average(1.0, [](int v) { return v / 1000.0; });
  EXPECT_EQ(Counted::copies.load(), 0);

  // A partition copies each kept row once: into its part.
  const auto parts = rows.where(even).partition(
      std::vector<int>{0, 1, 2}, [](const Counted& c) { return c.v % 3; });
  EXPECT_EQ(Counted::copies.load(), 500);
  EXPECT_EQ(parts.at(0).size_unsafe() + parts.at(1).size_unsafe() +
                parts.at(2).size_unsafe(),
            500u);
  EXPECT_EQ(Counted::copies.load(), 500);  // parts are sources: no store
}

// ---------------------------------------------------------------------
// Equivalence: fused vs. narrow nodes stored first through data_unsafe().
// ---------------------------------------------------------------------

using SpanRow = std::tuple<std::string, double, std::int64_t, std::int64_t,
                           double, std::string, std::string>;

void flatten(const std::vector<TraceSpan>& spans, std::vector<SpanRow>& out) {
  for (const TraceSpan& s : spans) {
    out.emplace_back(s.op, s.stability, s.input_rows, s.output_rows,
                     s.eps_charged, s.detail, s.mechanism);
    flatten(s.children, out);
  }
}

/// A narrow chain where -> select -> select_many (stability 2).
struct Chain {
  Queryable<int> where;
  Queryable<int> select;
  Queryable<int> fanout;
};

Chain narrow_chain(const Queryable<int>& q) {
  auto w = q.where([](int x) { return x % 3 != 0; });
  auto s = w.select([](int x) { return (x * 7) % 50; });
  auto m = s.select_many([](int x) { return std::vector<int>{x, x / 2}; }, 2);
  return {w, s, m};
}

struct Outcome {
  std::vector<double> values;
  std::vector<SpanRow> spans;  // every span of the tree, sorted
  std::string ledger;          // canonical
  std::uint64_t guard_rows = 0;
};

using Consumer = std::function<std::vector<double>(const Queryable<int>&,
                                                   const Queryable<int>&)>;

/// Runs `consume` over two narrow chains; with `stored`, every narrow
/// node of the chains it reads is first forced through data_unsafe().
Outcome run_consumer(const Consumer& consume, bool binary, bool stored) {
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1e9));
  const Queryable<int> a(iota_vec(0, 600), audit,
                         std::make_shared<NoiseSource>(11));
  const Queryable<int> b(iota_vec(300, 900), audit,
                         std::make_shared<NoiseSource>(12));
  QueryGuard guard(QueryGuard::Options{.max_total_rows = 1ULL << 40});
  QueryTrace trace;
  Outcome out;
  {
    const GuardScope guard_scope(guard);
    const TraceSession session(trace);
    const Chain left = narrow_chain(a);
    const Chain right = narrow_chain(b);
    if (stored) {
      for (const Chain* c : {&left, &right}) {
        if (c == &right && !binary) break;
        static_cast<void>(c->where.data_unsafe());
        static_cast<void>(c->select.data_unsafe());
        static_cast<void>(c->fanout.data_unsafe());
      }
    }
    out.values = consume(left.fanout, right.fanout);
  }
  flatten(trace.roots(), out.spans);
  std::sort(out.spans.begin(), out.spans.end());
  out.ledger = audit->to_json(/*canonical=*/true);
  out.guard_rows = guard.total_rows();
  return out;
}

TEST(Fusion, EveryConsumerMatchesItsStoredInputs) {
  const auto mod7 = [](int x) { return x % 7; };
  const auto one = [](const Queryable<int>& q) {
    return std::vector<double>{q.noisy_count(0.5)};
  };
  struct Case {
    std::string name;
    bool binary;
    Consumer consume;
  };
  const std::vector<Case> cases = {
      {"noisy_count", false,
       [](const Queryable<int>& l, const Queryable<int>&) {
         return std::vector<double>{l.noisy_count(0.5)};
       }},
      {"noisy_count_geometric", false,
       [](const Queryable<int>& l, const Queryable<int>&) {
         return std::vector<double>{
             static_cast<double>(l.noisy_count_geometric(0.5))};
       }},
      {"noisy_sum", false,
       [](const Queryable<int>& l, const Queryable<int>&) {
         return std::vector<double>{
             l.noisy_sum(0.5, [](int x) { return x / 50.0; })};
       }},
      {"noisy_average", false,
       [](const Queryable<int>& l, const Queryable<int>&) {
         return std::vector<double>{
             l.noisy_average(0.5, [](int x) { return x / 50.0; })};
       }},
      {"noisy_quantile", false,
       [](const Queryable<int>& l, const Queryable<int>&) {
         return std::vector<double>{l.noisy_quantile(
             0.5, 0.3, [](int x) { return static_cast<double>(x); })};
       }},
      {"group_by", false,
       [&](const Queryable<int>& l, const Queryable<int>&) {
         return one(l.group_by(mod7).select(
             [](const Group<int, int>& g) { return g.key; }));
       }},
      {"group_by_parallel", false,
       [&](const Queryable<int>& l, const Queryable<int>&) {
         return one(l.group_by(mod7, exec::ExecPolicy{4})
                        .select([](const Group<int, int>& g) {
                          return g.key;
                        }));
       }},
      {"group_by_spans", false,
       [&](const Queryable<int>& l, const Queryable<int>&) {
         return one(l.group_by_spans(mod7, [](int x) { return x % 5 == 0; })
                        .select([](const Group<int, int>& g) {
                          return g.key;
                        }));
       }},
      {"distinct", false,
       [&](const Queryable<int>& l, const Queryable<int>&) {
         return one(l.distinct());
       }},
      {"partition", false,
       [](const Queryable<int>& l, const Queryable<int>&) {
         const std::vector<int> keys = {0, 1, 2, 3, 4};
         const auto parts = l.partition(keys, [](int x) { return x % 5; });
         std::vector<double> counts;
         for (int k : keys) counts.push_back(parts.at(k).noisy_count(0.5));
         return counts;
       }},
      {"join", true,
       [&](const Queryable<int>& l, const Queryable<int>& r) {
         return one(l.join(
             r, [](int x) { return x % 10; }, [](int y) { return y % 10; },
             [](int x, int y) { return x + y; }));
       }},
      {"concat", true,
       [&](const Queryable<int>& l, const Queryable<int>& r) {
         return one(l.concat(r));
       }},
      {"set_union", true,
       [&](const Queryable<int>& l, const Queryable<int>& r) {
         return one(l.set_union(r));
       }},
      {"except", true,
       [&](const Queryable<int>& l, const Queryable<int>& r) {
         return one(l.except(r));
       }},
      {"intersect", true,
       [&](const Queryable<int>& l, const Queryable<int>& r) {
         return one(l.intersect(r));
       }},
  };
  for (const Case& c : cases) {
    const Outcome fused = run_consumer(c.consume, c.binary, /*stored=*/false);
    const Outcome stored = run_consumer(c.consume, c.binary, /*stored=*/true);
    EXPECT_EQ(fused.values, stored.values) << c.name;
    EXPECT_EQ(fused.spans, stored.spans) << c.name;
    EXPECT_EQ(fused.ledger, stored.ledger) << c.name;
    EXPECT_EQ(fused.guard_rows, stored.guard_rows) << c.name;
    EXPECT_GT(fused.guard_rows, 0u) << c.name;
  }
}

TEST(Fusion, FusedChainNestsItsSpansUnderTheConsumer) {
  auto q = Queryable<int>(iota_vec(0, 90), std::make_shared<RootBudget>(9.0),
                          std::make_shared<NoiseSource>(4));
  const auto chain = narrow_chain(q);
  QueryTrace trace;
  {
    const TraceSession session(trace);
    std::ignore = chain.fanout.noisy_count(1.0);
  }
  // One pass, but the span tree of the stored engine: each narrow span
  // nests under the operator that demanded it.
  ASSERT_EQ(trace.roots().size(), 1u);
  const TraceSpan* span = &trace.roots()[0];
  for (const char* op : {"noisy_count", "select_many", "select"}) {
    EXPECT_EQ(span->op, op);
    ASSERT_EQ(span->children.size(), 1u) << op;
    span = &span->children[0];
  }
  EXPECT_EQ(span->op, "where");
  EXPECT_TRUE(span->children.empty());
  EXPECT_EQ(span->input_rows, 90);
  EXPECT_EQ(span->output_rows, 60);
  for (const Queryable<int>* node : {&chain.where, &chain.select,
                                     &chain.fanout}) {
    EXPECT_TRUE(node->plan_node().materialized());
    EXPECT_FALSE(node->plan_node().holds_rows());
  }
}

TEST(Fusion, SharedNarrowNodeRunsItsChainAtMostTwice) {
  constexpr int kRows = 4096;
  std::vector<int> calls(kRows, 0);
  const Queryable<int> q(iota_vec(0, kRows),
                         std::make_shared<RootBudget>(1e9),
                         std::make_shared<NoiseSource>(5));
  const auto shared = q.where([&calls](int x) {
    ++calls[static_cast<std::size_t>(x)];
    return x % 2 == 0;
  });
  // Partitioned once per level, as frequent_strings does with its input.
  for (int level = 0; level < 8; ++level) {
    const auto parts = shared.partition(
        std::vector<int>{0, 1}, [](int x) { return x % 4 == 0 ? 0 : 1; });
    EXPECT_NEAR(parts.at(0).noisy_count(1e6), kRows / 4.0, 0.5);
  }
  EXPECT_LE(*std::max_element(calls.begin(), calls.end()), 2);
  EXPECT_TRUE(shared.plan_node().holds_rows());  // stored at its 2nd demand
  // Counting it re-runs nothing either.
  const std::vector<int> before = calls;
  std::ignore = shared.noisy_count(1.0);
  EXPECT_EQ(calls, before);
}

TEST(Fusion, SecondDemandStoresExactlyTheFusedPassRows) {
  // 3,000 of 10,000 rows: a push_back store would end at capacity 4,096.
  const Queryable<int> q(iota_vec(0, 10000),
                         std::make_shared<RootBudget>(1e9),
                         std::make_shared<NoiseSource>(8));
  const auto kept = q.where([](int x) { return x % 10 < 3; });
  EXPECT_NEAR(kept.noisy_count(1e6), 3000.0, 0.5);  // the fused pass
  EXPECT_FALSE(kept.plan_node().holds_rows());
  const std::vector<int>& rows = kept.data_unsafe();  // the second demand
  ASSERT_EQ(rows.size(), 3000u);
  EXPECT_EQ(rows.capacity(), rows.size());
  EXPECT_EQ(rows.front(), 0);
  EXPECT_EQ(rows.back(), 9992);
}

TEST(Fusion, ConcurrentDemandsShareOneEvaluation) {
  const Queryable<int> q(iota_vec(0, 20000),
                         std::make_shared<RootBudget>(1e18),
                         std::make_shared<NoiseSource>(6));
  const auto shared = q.where([](int x) { return x % 3 == 0; });
  const auto term = [](int x) { return (x % 100) / 100.0; };
  double exact = 0.0;
  for (int x : shared.data_unsafe()) exact += term(x);

  // A fresh, unevaluated node per run; four tasks demand it at once.
  const auto shared_again = q.where([](int x) { return x % 3 == 0; });
  std::vector<double> sums(4, 0.0);
  QueryTrace trace;
  {
    const TraceSession session(trace);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < sums.size(); ++i) {
      tasks.push_back([&shared_again, &sums, &term, i] {
        // eps = 1e15: the Laplace noise is far below one ulp of the sum.
        sums[i] = shared_again.noisy_sum(1e15, term);
      });
    }
    exec::Executor(exec::ExecPolicy{4}).run(std::move(tasks));
  }
  for (double s : sums) EXPECT_EQ(s, exact);
  std::vector<SpanRow> spans;
  flatten(trace.roots(), spans);
  const auto count_op = [&spans](const std::string& op) {
    return std::count_if(spans.begin(), spans.end(), [&op](const SpanRow& r) {
      return std::get<0>(r) == op;
    });
  };
  EXPECT_EQ(count_op("where"), 1);
  EXPECT_EQ(count_op("noisy_sum"), 4);
}

TEST(Fusion, QueryablesOverOneSharedSourceReadOneCopy) {
  const auto data = std::make_shared<const std::vector<int>>(iota_vec(0, 64));
  const Queryable<int> a(data, std::make_shared<RootBudget>(1.0),
                         std::make_shared<NoiseSource>(1));
  const Queryable<int> b(data, std::make_shared<RootBudget>(1.0),
                         std::make_shared<NoiseSource>(2));
  EXPECT_EQ(a.data_unsafe().data(), b.data_unsafe().data());
  EXPECT_EQ(a.data_unsafe().data(), data->data());
  EXPECT_THROW(Queryable<int>(std::shared_ptr<const std::vector<int>>(),
                              std::make_shared<RootBudget>(1.0),
                              std::make_shared<NoiseSource>(3)),
               InvalidQueryError);
}

}  // namespace
}  // namespace dpnet::core
