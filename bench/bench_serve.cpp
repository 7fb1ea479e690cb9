// Mediated query server throughput: queries/sec and response-latency
// percentiles as the number of concurrent analyst sessions grows.
//
// Not a paper table — an operations baseline for `dpnet_cli serve`
// (docs/robustness.md, "The mediated query server").  Per-analyst
// execution is serial by design (the determinism contract), so a single
// analyst measures the sequential floor and the 4/8-analyst sweeps
// measure how well independent sessions fill the executor pool.
//
// The perf sweep runs without a journal; a separate audited pass (exact
// rows only) enables the per-response journal commit on a fresh journal
// and, when DPNET_JOURNAL_DIR is set, leaves journal/ledger/trace
// artifacts for `dpnet_cli audit verify` (tests/bench/test_serve_bench.sh
// gates on them).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "serve/server.hpp"
#include "tracegen/hotspot.hpp"

namespace {

using dpnet::serve::QueryServer;
using dpnet::serve::ServerConfig;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRequestsPerAnalyst = 200;
// Dyadic so the dataset-spent sum is exact in double regardless of the
// order pool workers complete in — the "eps spent" rows are compared
// exactly against the baseline.
constexpr double kEpsPerRequest = 0.0009765625;  // 2^-10

ServerConfig bench_config() {
  ServerConfig cfg;
  cfg.dataset_budget = 64.0;
  cfg.analyst_cap = 1.0;
  cfg.threads = 4;
  // The bench drives the server far past interactive depths; admission
  // control is measured elsewhere (tests/chaos/), so the queues are
  // sized to admit the whole workload.
  cfg.queue_capacity = 1 << 20;
  cfg.analyst_queue_capacity = 1 << 20;
  cfg.seed = 2010;
  return cfg;
}

std::string request_line(std::uint64_t id, const std::string& analyst,
                         const char* query, double eps) {
  dpnet::core::JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("analyst").value(analyst);
  w.key("query").value(query);
  w.key("eps").value(eps);
  w.end_object();
  return w.str();
}

struct SweepResult {
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t ok = 0;
  double spent = 0.0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t i = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[i];
}

SweepResult run_sweep(const std::vector<dpnet::net::Packet>& trace,
                      std::size_t analysts, const ServerConfig& cfg) {
  QueryServer server(trace, cfg);
  static const char* kQueries[] = {"count", "count-tcp", "count-udp"};

  std::mutex mu;
  std::vector<double> latencies_ms;
  std::size_t ok = 0;
  latencies_ms.reserve(analysts * kRequestsPerAnalyst);

  const auto begin = Clock::now();
  std::uint64_t id = 0;
  for (std::size_t r = 0; r < kRequestsPerAnalyst; ++r) {
    for (std::size_t a = 0; a < analysts; ++a) {
      const std::string analyst = "analyst" + std::to_string(a);
      const std::string frame =
          request_line(++id, analyst, kQueries[r % 3], kEpsPerRequest);
      const auto submitted = Clock::now();
      server.submit_frame(frame, [&mu, &latencies_ms, &ok,
                                  submitted](const std::string& line) {
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      submitted)
                .count();
        const std::lock_guard<std::mutex> lock(mu);
        latencies_ms.push_back(ms);
        if (line.find("\"status\":\"ok\"") != std::string::npos) ++ok;
      });
    }
  }
  server.drain();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - begin).count();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  SweepResult res;
  res.wall_s = wall_s;
  res.p50_ms = percentile(latencies_ms, 0.50);
  res.p95_ms = percentile(latencies_ms, 0.95);
  res.p99_ms = percentile(latencies_ms, 0.99);
  res.ok = ok;
  res.spent = server.dataset_spent();
  return res;
}

}  // namespace

int main() {
  using namespace dpnet::bench;
  header("Mediated query server: sessions vs throughput",
         "ops baseline for dpnet_cli serve (no paper counterpart)");

  dpnet::tracegen::HotspotConfig gen_cfg =
      dpnet::tracegen::HotspotConfig::small();
  gen_cfg.seed = 2010;
  const auto trace = dpnet::tracegen::HotspotGenerator(gen_cfg).generate();
  kv("trace packets", static_cast<double>(trace.size()));
  kv("requests per analyst", static_cast<double>(kRequestsPerAnalyst));

  double headline_qps = 0.0;
  for (const std::size_t analysts : {1, 4, 8}) {
    section("analysts=" + std::to_string(analysts));
    const SweepResult res = run_sweep(trace, analysts, bench_config());
    const double total =
        static_cast<double>(analysts) * kRequestsPerAnalyst;
    const double qps = total / res.wall_s;
    kv("throughput (queries/sec)", qps);
    kv("p50_ms", res.p50_ms);
    kv("p95_ms", res.p95_ms);
    kv("p99_ms", res.p99_ms);
    kv("ok responses", static_cast<double>(res.ok));
    kv("dataset eps spent", res.spent);
    headline_qps = qps;
  }
  BenchReport::instance().set_throughput(headline_qps);

  // Audited pass: per-response journal commit on, artifacts out.  Exact
  // accounting rows only — the commit cost keeps it out of the perf
  // sweep above.
  section("audited");
  ServerConfig audited_cfg = bench_config();
  std::string journal_dir;
  if (const char* env = std::getenv("DPNET_JOURNAL_DIR");
      env != nullptr && *env != '\0') {
    journal_dir = env;
  }
  audited_cfg.journal_path =
      (journal_dir.empty() ? std::string(".") : journal_dir) +
      "/journal.jsonl";
  // The server replays a journal it finds; one left by an earlier run
  // would carry that run's spend into this one's exact rows.
  std::remove(audited_cfg.journal_path.c_str());
  {
    QueryServer server(trace, audited_cfg);
    std::uint64_t id = 0;
    for (std::size_t r = 0; r < 25; ++r) {
      for (std::size_t a = 0; a < 4; ++a) {
        server.submit_frame(
            request_line(++id, "analyst" + std::to_string(a), "count",
                         kEpsPerRequest),
            [](const std::string&) {});
      }
    }
    server.drain();
    server.flush_journal();
    kv("audited dataset eps spent", server.dataset_spent());
    if (!journal_dir.empty()) {
      const auto write = [](const std::string& path,
                            const std::string& text) {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return;
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      };
      write(journal_dir + "/ledger.json", server.ledger_json());
      write(journal_dir + "/trace.json", server.trace_json());
    }
  }

  paper_vs_measured("server throughput", "n/a (ops baseline)",
                    std::to_string(static_cast<long>(headline_qps)) +
                        " q/s @ 8 analysts");
  return 0;
}
