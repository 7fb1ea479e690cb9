// Parallel executor engine bench: a partition-heavy pipeline (400 parts,
// one filtered noisy count per part) run at 1, 2, and 4 executor threads;
// the partition classifies its rows in chunks under the same policy.
//
// Two things are measured.  First, determinism: for a fixed seed the noisy
// outputs must be byte-identical at every thread count — plan-node ids are
// hash-chained from the root stream, so the per-release noise forks do not
// depend on the schedule (docs/architecture.md).  The bench aborts if any
// release differs.  Second, throughput: wall time per thread count, with
// the measured speedup over this binary's own single-thread run recorded
// in the JSON report (fields "threads" / "speedup_vs_1thread").  The final
// run executes under a TraceSession against an auditing budget so the
// artifact's trace and ledger reconcile exactly.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/common.hpp"
#include "core/audit.hpp"
#include "core/exec/executor.hpp"
#include "core/trace.hpp"

namespace {

constexpr int kParts = 400;
constexpr double kEps = 0.5;

using dpnet::core::Queryable;

std::vector<std::int64_t> make_rows() {
  // Deterministic synthetic rows: enough per part that the per-branch
  // filter + count does real work.
  std::vector<std::int64_t> rows;
  rows.reserve(1200000);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 1200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rows.push_back(static_cast<std::int64_t>(x % 1000000));
  }
  return rows;
}

std::vector<double> run_pipeline(const Queryable<std::int64_t>& data,
                                 dpnet::core::exec::ExecPolicy policy) {
  std::vector<int> keys(kParts);
  for (int k = 0; k < kParts; ++k) keys[static_cast<std::size_t>(k)] = k;
  auto parts = data.partition(
      keys, [](std::int64_t v) { return static_cast<int>(v % kParts); },
      policy);
  return dpnet::core::exec::map_parts(
      policy, keys, parts, [](int, const Queryable<std::int64_t>& part) {
        return part.where([](std::int64_t v) { return v % 7 != 0; })
            .noisy_count(kEps);
      });
}

bool byte_identical(const std::vector<double>& a,
                    const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main() {
  using namespace dpnet;
  using Clock = std::chrono::steady_clock;
  bench::header("Parallel executor: determinism and speedup",
                "engine property (plan/executor split, not a paper figure)");

  const auto rows = make_rows();
  bench::kv("rows", static_cast<double>(rows.size()));
  bench::kv("partition parts", static_cast<double>(kParts));

  bench::section("wall time by thread count (same seed)");
  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  std::vector<double> reference;
  std::vector<double> wall_ms(thread_counts.size());
  bool identical = true;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const core::exec::ExecPolicy policy{thread_counts[i]};
    auto data = bench::protect(rows, 4242);
    const auto t0 = Clock::now();
    const auto counts = run_pipeline(data, policy);
    const auto t1 = Clock::now();
    wall_ms[i] =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::printf("  threads=%zu  %10.2f ms\n", thread_counts[i], wall_ms[i]);
    if (i == 0) {
      reference = counts;
    } else if (!byte_identical(counts, reference)) {
      identical = false;
      std::fprintf(stderr,
                   "FATAL: noisy outputs at threads=%zu differ from the "
                   "sequential run\n",
                   thread_counts[i]);
    }
  }
  if (!identical) return 1;
  bench::kv("outputs byte-identical across thread counts", "yes");
  // Absolute wall times feed the bench_compare regression gate (timing
  // rows are compared with a relative threshold, not exactly).
  bench::kv("wall_ms at 1 thread", wall_ms[0]);
  bench::kv("wall_ms at 2 threads", wall_ms[1]);
  bench::kv("wall_ms at 4 threads", wall_ms[2]);

  const double speedup4 = wall_ms[0] / wall_ms[2];
  bench::kv("speedup at 2 threads", wall_ms[0] / wall_ms[1]);
  bench::kv("speedup at 4 threads", speedup4);
  bench::BenchReport::instance().set_parallelism(4, speedup4);

  // Partition branches charge under the max-cost rule, so their traces
  // legitimately show more per-branch eps than the ledger spends; the
  // reconciliation artifact instead uses independent where-branches, where
  // every charge lands in the ledger and trace == ledger holds exactly.
  bench::section("traced + audited branch run (threads=1 vs 4)");
  auto run_branches = [&rows](std::size_t threads,
                              std::shared_ptr<core::PrivacyBudget> budget) {
    auto data = core::Queryable<std::int64_t>(
        std::vector<std::int64_t>(rows.begin(), rows.begin() + 200000),
        std::move(budget), std::make_shared<core::NoiseSource>(4242));
    constexpr int kBranches = 100;
    std::vector<Queryable<std::int64_t>> branches;
    std::vector<std::size_t> keys;
    for (int k = 0; k < kBranches; ++k) {
      branches.push_back(data.where(
          [k](std::int64_t v) { return v % kBranches == k; }));
      keys.push_back(static_cast<std::size_t>(k));
    }
    return dpnet::core::exec::map_parts(
        core::exec::ExecPolicy{threads}, keys, branches,
        [](std::size_t, const Queryable<std::int64_t>& q) {
          return q.noisy_count(kEps);
        });
  };
  const auto branch_seq =
      run_branches(1, std::make_shared<core::RootBudget>(1e9));
  auto audit = std::make_shared<core::AuditingBudget>(
      std::make_shared<core::RootBudget>(1e9));
  core::QueryTrace query_trace;
  std::vector<double> audited;
  {
    core::TraceSession session(query_trace);
    audited = run_branches(4, audit);
  }
  if (!byte_identical(audited, branch_seq)) {
    std::fprintf(stderr,
                 "FATAL: traced 4-thread branch run diverged from its "
                 "sequential twin\n");
    return 1;
  }
  bench::kv("branch outputs byte-identical (1 vs 4 threads)", "yes");
  bench::kv("trace total eps charged", query_trace.total_eps_charged());
  bench::kv("audit ledger spent", audit->spent());
  bench::BenchReport::instance().attach_trace(query_trace);
  bench::BenchReport::instance().attach_audit(*audit);

  bench::section("paper vs measured");
  bench::paper_vs_measured("parallel noise = sequential noise", "exact",
                           identical ? "byte-identical" : "DIVERGED");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2fx", speedup4);
  bench::paper_vs_measured("speedup at 4 threads",
                           ">=2x on a 4-core host", buf);
  return 0;
}
