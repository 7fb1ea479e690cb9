// Crash-safe budget recovery: each response waits until its events are
// appended to the journal and fdatasync'ed, so a server killed at ANY
// point can be restarted against the journal and reconstruct each
// analyst's spent epsilon exactly — a crash can never refund budget
// (docs/robustness.md, "Crash-safe budget recovery").
//
// The "crash" here is in-process: the first server is destroyed without
// ceremony and the global journal ring is cleared (a new process starts
// with an empty ring), leaving the journal file as the only surviving
// record — exactly what a real restart sees.  The CLI soak test
// (tests/cli/test_serve_soak.sh) does the same drill across real
// processes with kill -9.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/json.hpp"
#include "core/obs/journal.hpp"
#include "net/packet.hpp"
#include "serve/server.hpp"

namespace dpnet::serve {
namespace {

std::vector<net::Packet> small_trace() {
  std::vector<net::Packet> trace(32);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].timestamp = static_cast<double>(i);
    trace[i].protocol = net::kProtoTcp;
    trace[i].length = 64;
  }
  return trace;
}

std::string request_line(std::uint64_t id, const std::string& analyst,
                         double eps) {
  core::JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("analyst").value(analyst);
  w.key("query").value("count");
  w.key("eps").value(eps);
  w.end_object();
  return w.str();
}

/// Synchronous submit-and-wait; returns the response line ("" if the
/// response was dropped).
std::string ask(QueryServer& server, std::uint64_t id,
                const std::string& analyst, double eps) {
  std::mutex mu;
  std::string response;
  server.submit_frame(request_line(id, analyst, eps),
                      [&](const std::string& line) {
                        const std::lock_guard<std::mutex> lock(mu);
                        response = line;
                      });
  server.drain();
  return response;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

ServerConfig journal_config(const std::string& path, std::size_t threads) {
  ServerConfig cfg;
  cfg.dataset_budget = 4.0;
  cfg.analyst_cap = 1.0;
  cfg.threads = threads;
  cfg.journal_path = path;
  return cfg;
}

// Budget == ledger == journal == trace must survive a crash + restart:
// the restarted server replays per-analyst spend exactly, refuses what
// no longer fits, and its own journal keeps reconciling — at 1, 4, and
// 8 threads.
TEST(ServeRecovery, ReplaysPerAnalystSpendExactlyAcrossRestart) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const std::string path = ::testing::TempDir() + "/serve_recovery_" +
                             std::to_string(threads) + ".jsonl";
    std::remove(path.c_str());

    {
      QueryServer first(small_trace(), journal_config(path, threads));
      EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
                std::string::npos);
      EXPECT_NE(ask(first, 2, "bob", 0.25).find("\"status\":\"ok\""),
                std::string::npos);
      EXPECT_NE(ask(first, 3, "alice", 0.375).find("\"status\":\"ok\""),
                std::string::npos);
      // A genuine cap refusal: journaled as a refusal, charges nothing.
      EXPECT_NE(ask(first, 4, "alice", 0.5).find("budget-exhausted"),
                std::string::npos);
      EXPECT_DOUBLE_EQ(first.analyst_spent("alice"), 0.875);
      EXPECT_DOUBLE_EQ(first.analyst_spent("bob"), 0.25);
      // Crash: no shutdown flush, no artifacts — the per-response
      // flushes are all that survive.
    }
    core::obs::EventJournal::global().clear();  // fresh-process analog

    QueryServer second(small_trace(), journal_config(path, threads));
    ASSERT_EQ(second.recovered().size(), 2u);
    EXPECT_EQ(second.recovered()[0].analyst, "alice");
    EXPECT_DOUBLE_EQ(second.recovered()[0].eps, 0.875);
    EXPECT_EQ(second.recovered()[1].analyst, "bob");
    EXPECT_DOUBLE_EQ(second.recovered()[1].eps, 0.25);
    EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.875);
    EXPECT_DOUBLE_EQ(second.analyst_spent("bob"), 0.25);
    EXPECT_DOUBLE_EQ(second.dataset_spent(), 1.125);

    // No refunds: alice's recovered 0.875 stands, so 0.25 no longer
    // fits her 1.0 cap...
    EXPECT_NE(ask(second, 5, "alice", 0.25).find("budget-exhausted"),
              std::string::npos);
    // ...while 0.125 fits exactly.
    EXPECT_NE(ask(second, 6, "alice", 0.125).find("\"status\":\"ok\""),
              std::string::npos);
    EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 1.0);

    // The restarted server's journal (recovery charges + new charges)
    // reconciles with its ledger: the books balance by induction.
    const core::obs::JournalVerification v =
        core::obs::verify_journal_file(path);
    ASSERT_TRUE(v.ok) << v.error << " (threads=" << threads << ")";
    EXPECT_DOUBLE_EQ(v.charged_eps_by_label.at("alice"), 1.0);
    EXPECT_DOUBLE_EQ(v.charged_eps_by_label.at("bob"), 0.25);
    EXPECT_DOUBLE_EQ(v.charged_eps, second.dataset_spent());
    EXPECT_EQ(v.refusals, 1u);  // request 5; request 4 died with run 1
  }
}

// Chained restarts: recovery charges are themselves journaled, so a
// second crash recovers the same totals — restart is idempotent.
TEST(ServeRecovery, RestartIsIdempotentAcrossChainedCrashes) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_chain.jsonl";
  std::remove(path.c_str());

  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
  }
  core::obs::EventJournal::global().clear();
  {
    QueryServer second(small_trace(), journal_config(path, 2));
    EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.5);
    // Crash again immediately: the only journal content on disk is
    // still run 1's — run 2 never answered a request, so it never
    // flushed.
  }
  core::obs::EventJournal::global().clear();
  QueryServer third(small_trace(), journal_config(path, 2));
  EXPECT_DOUBLE_EQ(third.analyst_spent("alice"), 0.5);
  EXPECT_DOUBLE_EQ(third.dataset_spent(), 0.5);
}

// A tampered journal must refuse startup outright: budgets cannot be
// reconstructed from a record that fails its hash chain.
TEST(ServeRecovery, TamperedJournalRefusesStartup) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_tampered.jsonl";
  std::remove(path.c_str());
  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
  }
  core::obs::EventJournal::global().clear();

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 0x1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(QueryServer(small_trace(), journal_config(path, 2)),
               core::DpError);
}

// A recovered spend that no longer fits a (shrunk) cap refuses startup:
// silently truncating it would refund budget.
TEST(ServeRecovery, ShrunkCapRefusesStartup) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_shrunk.jsonl";
  std::remove(path.c_str());
  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
  }
  core::obs::EventJournal::global().clear();

  ServerConfig shrunk = journal_config(path, 2);
  shrunk.analyst_cap = 0.25;  // less than alice's recovered 0.5
  EXPECT_THROW(QueryServer(small_trace(), shrunk), core::DpError);
}

// A crash inside a commit — the obs.journal.flush failpoint fires in the
// append commit, before the batch is written — must leave the PREVIOUS
// complete journal on disk: the failed batch is not there afterwards.
// A kill -9 mid-commit can neither strand the restart nor force the
// operator to delete the journal (which would refund every spent
// epsilon).
TEST(ServeRecovery, CrashMidFlushLeavesPreviousJournalReplayable) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_midflush.jsonl";
  std::remove(path.c_str());
  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
    // Crash in the window the atomic temp+fsync+rename protects.
    core::failpoint::ScopedFailpoint crash(
        "obs.journal.flush", [](std::string_view) {
          throw std::runtime_error("injected crash mid-flush");
        });
    // The failed flush withholds the value: the charge was never made
    // durable, so no answer may acknowledge it.
    EXPECT_NE(ask(first, 2, "alice", 0.25).find("\"error\":\"internal\""),
              std::string::npos);
  }
  core::obs::EventJournal::global().clear();  // fresh-process analog

  // On disk: run 1's first complete flush, not a truncated hybrid.
  const core::obs::JournalVerification v =
      core::obs::verify_journal_file(path);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.charges, 1u);

  // Restart replays exactly the witnessed spend; serving resumes, and a
  // successful flush leaves no temp residue behind.
  QueryServer second(small_trace(), journal_config(path, 2));
  ASSERT_EQ(second.recovered().size(), 1u);
  EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.5);
  EXPECT_NE(ask(second, 3, "alice", 0.125).find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.625);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

// Durability when the bytes no fdatasync covered are lost (power loss).
// Requests go one at a time, and the journal file is snapshotted at
// every acknowledged response.  Within a lifetime the file only grows by
// appends, so each snapshot is a byte prefix of the next; a restart on
// snapshot k — or on snapshot k plus half of the next batch, a torn
// write — recovers exactly the spend acknowledged through k; and a
// flipped byte anywhere up to the last complete batch still refuses
// startup.  Only the incomplete tail, which no response acknowledged,
// may be ignored, and the offline audit still reports it.
TEST(ServeRecovery, AcknowledgedSpendSurvivesLosingUnsyncedBytes) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_unsynced.jsonl";
  const std::string copy =
      ::testing::TempDir() + "/serve_recovery_unsynced_copy.jsonl";
  std::remove(path.c_str());

  struct Ack {
    std::string bytes;  // the journal file when the response arrived
    std::map<std::string, double> spent;  // acknowledged so far
  };
  std::vector<Ack> acks;
  {
    QueryServer server(small_trace(), journal_config(path, 2));
    const std::vector<std::pair<std::string, double>> plan = {
        {"alice", 0.25}, {"bob", 0.125},  {"alice", 0.125},
        {"carol", 0.5},  {"bob", 0.25},   {"alice", 0.0625}};
    std::map<std::string, double> spent;
    std::uint64_t id = 0;
    for (const auto& [analyst, eps] : plan) {
      ASSERT_NE(ask(server, ++id, analyst, eps).find("\"status\":\"ok\""),
                std::string::npos);
      spent[analyst] += eps;
      acks.push_back(Ack{read_file(path), spent});
    }
  }
  core::obs::EventJournal::global().clear();  // fresh-process analog

  for (std::size_t k = 1; k < acks.size(); ++k) {
    const std::string& prev = acks[k - 1].bytes;
    EXPECT_GT(acks[k].bytes.size(), prev.size()) << "ack " << k;
    EXPECT_EQ(acks[k].bytes.compare(0, prev.size(), prev), 0)
        << "snapshot " << k - 1 << " is not a prefix of snapshot " << k;
  }

  const auto expect_recovers = [&](const std::string& bytes,
                                   const std::map<std::string, double>& want,
                                   const std::string& what) {
    write_file(copy, bytes);
    QueryServer restarted(small_trace(), journal_config(copy, 2));
    double total = 0.0;
    for (const auto& [analyst, eps] : want) {
      EXPECT_DOUBLE_EQ(restarted.analyst_spent(analyst), eps)
          << analyst << " after " << what;
      total += eps;
    }
    EXPECT_DOUBLE_EQ(restarted.dataset_spent(), total) << what;
  };
  for (std::size_t k = 0; k < acks.size(); ++k) {
    const std::string what = "ack " + std::to_string(k);
    expect_recovers(acks[k].bytes, acks[k].spent, what);
    EXPECT_TRUE(core::obs::verify_journal_text(acks[k].bytes).ok) << what;
    if (k + 1 == acks.size()) break;
    const std::string& next = acks[k + 1].bytes;
    const std::string torn = next.substr(
        0, acks[k].bytes.size() + (next.size() - acks[k].bytes.size()) / 2);
    expect_recovers(torn, acks[k].spent, what + " + half a batch");
    const core::obs::JournalVerification v =
        core::obs::verify_journal_text(torn);
    EXPECT_FALSE(v.ok) << what;
    EXPECT_TRUE(v.torn_tail) << what << ": " << v.error;
  }

  const std::string& last = acks.back().bytes;
  for (std::size_t i = 0; i < last.size(); ++i) {
    std::string tampered = last;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x1);
    write_file(copy, tampered);
    EXPECT_THROW(QueryServer(small_trace(), journal_config(copy, 1)),
                 core::DpError)
        << "flip at byte " << i << " did not refuse startup";
  }
}

// A journal written before the log became append-only — one canonical
// document, rewritten whole on every response — still verifies and
// replays.  An upgraded server that refused its old journal would leave
// deletion as the operator's only way out, and deletion refunds every
// spent epsilon.
TEST(ServeRecovery, ReplaysAJournalFromTheWholeFileRewriter) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_upgrade.jsonl";
  write_file(path, read_file(std::string(DPNET_SOURCE_DIR) +
                             "/tests/chaos/fixtures/rewritten_journal.jsonl"));
  const core::obs::JournalVerification v =
      core::obs::verify_journal_file(path);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.charges, 3u);
  EXPECT_EQ(v.refusals, 1u);
  {
    QueryServer upgraded(small_trace(), journal_config(path, 2));
    EXPECT_DOUBLE_EQ(upgraded.analyst_spent("alice"), 0.625);
    EXPECT_DOUBLE_EQ(upgraded.analyst_spent("bob"), 0.25);
    // Nothing was refunded: 0.5 more no longer fits alice's 1.0 cap...
    EXPECT_NE(ask(upgraded, 5, "alice", 0.5).find("budget-exhausted"),
              std::string::npos);
    // ...while 0.375 fits exactly.
    EXPECT_NE(ask(upgraded, 6, "alice", 0.375).find("\"status\":\"ok\""),
              std::string::npos);
  }
  core::obs::EventJournal::global().clear();

  // The upgraded server's own file (compacted, then appended) replays.
  QueryServer again(small_trace(), journal_config(path, 2));
  EXPECT_DOUBLE_EQ(again.analyst_spent("alice"), 1.0);
  EXPECT_DOUBLE_EQ(again.analyst_spent("bob"), 0.25);
}

// A missing journal file is a first boot, not an error.
TEST(ServeRecovery, MissingJournalIsFirstBoot) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_absent.jsonl";
  std::remove(path.c_str());
  QueryServer server(small_trace(), journal_config(path, 2));
  EXPECT_TRUE(server.recovered().empty());
  EXPECT_DOUBLE_EQ(server.dataset_spent(), 0.0);
}

}  // namespace
}  // namespace dpnet::serve
