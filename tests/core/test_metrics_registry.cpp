// MetricsRegistry: counter/gauge/histogram semantics, built-in metric
// maintenance by the engine, and thread-safety under concurrent streaming
// releases (run under tsan via the sanitizer preset).
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/json.hpp"
#include "core/queryable.hpp"

namespace dpnet::core {
namespace {

TEST(Metrics, CounterGaugeHistogramBasics) {
  Counter c;
  c.increment();
  c.increment(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);

  Histogram h({1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);  // overflow
}

TEST(Metrics, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.increment();
  EXPECT_EQ(b.value(), 1u);
  Histogram& h = registry.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&h, &registry.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(registry.histogram("h", {1.0, 3.0}), InvalidQueryError);
}

TEST(Metrics, SnapshotSerializesEveryKind) {
  MetricsRegistry registry;
  registry.counter("c").increment(2);
  registry.gauge("g").set(1.5);
  registry.histogram("h", {1.0}).observe(0.5);
  const JsonValue doc = parse_json(registry.to_json());
  EXPECT_EQ(doc.at("counters").at("c").number, 2.0);
  EXPECT_EQ(doc.at("gauges").at("g").number, 1.5);
  const JsonValue& h = doc.at("histograms").at("h");
  EXPECT_EQ(h.at("count").number, 1.0);
  ASSERT_EQ(h.at("buckets").array.size(), 2u);
  EXPECT_EQ(h.at("buckets").array[0].at("upper_bound").number, 1.0);
  EXPECT_TRUE(h.at("buckets").array[1].at("upper_bound").is_null());
  EXPECT_NE(registry.pretty().find("c"), std::string::npos);
}

TEST(Metrics, JsonHistogramsCarryPercentiles) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {1.0, 10.0, 100.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  const JsonValue doc = parse_json(registry.to_json());
  const JsonValue& j = doc.at("histograms").at("lat");
  EXPECT_EQ(j.at("count").number, 100.0);
  const double p50 = j.at("p50").number;
  const double p95 = j.at("p95").number;
  const double p99 = j.at("p99").number;
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Every observation sits in the (1, 10] bucket, so the interpolated
  // percentiles cannot leave it.
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p99, 10.0);
}

TEST(Metrics, PrometheusExpositionFormat) {
  MetricsRegistry registry;
  registry.counter("queries.executed").increment(3);
  registry.gauge("eps.charged.laplace").set(1.25);
  Histogram& h = registry.histogram("query.wall_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(500.0);
  const std::string text = registry.to_prometheus();

  // Names are sanitized ('.' -> '_') and prefixed; each sample is
  // `name value` with a TYPE declaration.
  EXPECT_NE(text.find("# TYPE dpnet_queries_executed counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dpnet_queries_executed 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dpnet_eps_charged_laplace gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("dpnet_eps_charged_laplace 1.25\n"),
            std::string::npos);
  // Histogram buckets are cumulative and close with +Inf == _count.
  EXPECT_NE(text.find("# TYPE dpnet_query_wall_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("dpnet_query_wall_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("dpnet_query_wall_ms_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("dpnet_query_wall_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("dpnet_query_wall_ms_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("dpnet_query_wall_ms_sum 505.5\n"),
            std::string::npos);
}

TEST(Metrics, EngineMaintainsBuiltins) {
  const std::uint64_t queries_before = builtin_metrics::queries_executed().value();
  const std::uint64_t refused_before = builtin_metrics::refused_charges().value();
  const std::uint64_t draws_before = builtin_metrics::noise_draws().value();
  const double laplace_before = builtin_metrics::eps_charged("laplace").value();

  Queryable<int> q(std::vector<int>{1, 2, 3},
                   std::make_shared<RootBudget>(1.0),
                   std::make_shared<NoiseSource>(3));
  std::ignore = q.noisy_count(0.25);
  EXPECT_EQ(builtin_metrics::queries_executed().value(), queries_before + 1);
  EXPECT_GE(builtin_metrics::noise_draws().value(), draws_before + 1);
  EXPECT_DOUBLE_EQ(builtin_metrics::eps_charged("laplace").value(),
                   laplace_before + 0.25);

  EXPECT_THROW(std::ignore = q.noisy_count(10.0), BudgetExhaustedError);
  EXPECT_EQ(builtin_metrics::refused_charges().value(), refused_before + 1);
  EXPECT_EQ(builtin_metrics::queries_executed().value(), queries_before + 1);
}

// Eight threads, each releasing a histogram over its own streamed source
// repeatedly, all updating the shared global metrics concurrently.  The
// counters must come out exact (no lost updates).
TEST(Metrics, ThreadSafeUnderConcurrentStreaming) {
  constexpr int kThreads = 8;
  constexpr int kReleases = 50;
  const std::uint64_t queries_before = builtin_metrics::queries_executed().value();
  const double laplace_before = builtin_metrics::eps_charged("laplace").value();

  std::vector<std::thread> workers;  // dpnet-lint: suppress(R7)
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      const auto hist = Queryable<int>::streamed(
          [](plan::SourceSink<int>& sink) {
            for (int i = 0; i < 90; ++i) sink(i % 3);
          },
          std::make_shared<RootBudget>(1e6),
          std::make_shared<NoiseSource>(static_cast<std::uint64_t>(t) + 1));
      for (int r = 0; r < kReleases; ++r) {
        // eps = 0.25 is a binary fraction, so the concurrent gauge adds
        // must reassemble to an exact total in any interleaving.
        std::ignore = hist.noisy_counts(std::vector<int>{0, 1, 2},
                                        [](int x) { return x; }, 0.25);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(builtin_metrics::queries_executed().value(),
            queries_before + kThreads * kReleases);
  EXPECT_DOUBLE_EQ(builtin_metrics::eps_charged("laplace").value(),
                   laplace_before + 0.25 * kThreads * kReleases);
}

// Concurrent registration of fresh names must not invalidate references
// handed out to other threads.
TEST(Metrics, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;  // dpnet-lint: suppress(R7)
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      Counter& mine = registry.counter("worker." + std::to_string(t));
      Counter& shared = registry.counter("shared");
      for (int i = 0; i < 1000; ++i) {
        mine.increment();
        shared.increment();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.counter("shared").value(), 8000u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter("worker." + std::to_string(t)).value(), 1000u);
  }
}

}  // namespace
}  // namespace dpnet::core
