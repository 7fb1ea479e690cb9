// Server chaos: the mediated query server must survive hostile wire
// input, degrade through its documented ladder (admit -> queue ->
// backpressure -> shed -> abort), charge nothing for aborted releases,
// and keep all four books — budget, ledger, journal, trace — in exact
// agreement at any thread count (docs/robustness.md, "The server
// degradation ladder").
//
// All epsilons are dyadic rationals (multiples of 0.125) so sums are
// exact in binary floating point and the assertions demand equality.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/obs/journal.hpp"
#include "net/packet.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace dpnet::serve {
namespace {

// A small trace with payloads that must NEVER appear in any response or
// artifact — the canary for the telemetry privacy stance.
constexpr const char* kCanary = "payload-canary-3f2a";

std::vector<net::Packet> canary_trace() {
  std::vector<net::Packet> trace(64);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    net::Packet& p = trace[i];
    p.timestamp = static_cast<double>(i) * 0.001;
    p.protocol = (i % 2 == 0) ? net::kProtoTcp : net::kProtoUdp;
    p.src_port = static_cast<std::uint16_t>(1024 + i);
    p.dst_port = (i % 4 == 0) ? 80 : 443;
    p.length = 64;
    p.payload = kCanary;
  }
  return trace;
}

/// Collects responses from worker threads, keyed by frame id.
struct ResponseLog {
  std::mutex mu;
  std::vector<std::string> lines;

  QueryServer::ResponseSink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    };
  }

  [[nodiscard]] std::map<std::uint64_t, std::string> by_id() {
    const std::lock_guard<std::mutex> lock(mu);
    std::map<std::uint64_t, std::string> out;
    for (const std::string& line : lines) {
      const core::JsonValue doc = core::parse_json(line);
      out[static_cast<std::uint64_t>(doc.find("id")->number)] = line;
    }
    return out;
  }

  [[nodiscard]] std::size_t size() {
    const std::lock_guard<std::mutex> lock(mu);
    return lines.size();
  }
};

std::string error_code(const std::string& line) {
  const core::JsonValue doc = core::parse_json(line);
  const core::JsonValue* status = doc.find("status");
  if (status == nullptr || status->string != "error") return "";
  return doc.find("error")->string;
}

std::string request_line(std::uint64_t id, const std::string& analyst,
                         const std::string& query, double eps) {
  core::JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("analyst").value(analyst);
  w.key("query").value(query);
  w.key("eps").value(eps);
  w.end_object();
  return w.str();
}

// --- hostile wire input --------------------------------------------------

// Every truncation of a valid frame at every byte boundary, every
// single-byte flip, an oversized frame, and byte garbage: each gets
// exactly one sanitized error-or-ok response, no response ever carries
// record contents, and the server keeps serving afterwards.
TEST(ServeRobustness, CorruptFrameCorpusGetsSanitizedAnswers) {
  ServerConfig cfg;
  cfg.dataset_budget = 1024.0;
  cfg.analyst_cap = 1024.0;
  cfg.threads = 2;
  cfg.max_sessions = 4096;  // flipped analyst bytes mint new principals
  QueryServer server(canary_trace(), cfg);

  const std::string valid = request_line(7, "alice", "count", 0.125);
  std::vector<std::string> corpus;
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    corpus.push_back(valid.substr(0, cut));  // truncation at every boundary
  }
  for (std::size_t i = 0; i < valid.size(); ++i) {
    std::string flipped = valid;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x20);  // single-byte flip
    corpus.push_back(flipped);
  }
  // Oversized frame: structurally fine JSON past the frame ceiling.
  std::string oversized = "{\"id\":1,\"analyst\":\"alice\",\"query\":\"";
  oversized.append(protocol::kMaxFrameBytes, 'x');
  oversized += "\",\"eps\":0.125}";
  corpus.push_back(oversized);
  corpus.emplace_back("\x01\x02\xff\xfe binary garbage");
  corpus.emplace_back("[1,2,3]");                      // not an object
  corpus.emplace_back("{\"analyst\":\"alice\"}");      // missing fields
  corpus.emplace_back(
      "{\"id\":1,\"analyst\":\"../etc\",\"query\":\"count\",\"eps\":1}");

  for (const std::string& frame : corpus) {
    ResponseLog log;
    server.submit_frame(frame, log.sink());
    server.drain();
    ASSERT_EQ(log.size(), 1u) << "frame: " << frame.substr(0, 60);
    const std::string& response = log.lines.front();
    EXPECT_EQ(response.find(kCanary), std::string::npos)
        << "record contents leaked into a response";
    // The response parses, and an error response names only a taxonomy
    // code (never free-form exception text).
    const core::JsonValue doc = core::parse_json(response);
    ASSERT_NE(doc.find("status"), nullptr);
  }
  EXPECT_EQ(
      error_code(
          [&] {
            ResponseLog log;
            server.submit_frame(oversized, log.sink());
            server.drain();
            return log.lines.front();
          }()),
      "invalid-query");

  // Still serving: a well-formed request after the whole corpus works.
  ResponseLog log;
  server.submit_frame(valid, log.sink());
  server.drain();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log.lines.front().find("\"status\":\"ok\""), std::string::npos);
}

// --- the degradation ladder ----------------------------------------------

// With dispatch blocked, the per-analyst FIFO fills to "backpressure"
// and the server-wide queue fills to "overloaded" (shed); both refusals
// are counted, charge nothing, and every *admitted* request is answered
// once dispatch resumes.
TEST(ServeRobustness, BackpressureThenShedThenRecovers) {
  ServerConfig cfg;
  cfg.dataset_budget = 64.0;
  cfg.analyst_cap = 8.0;
  cfg.threads = 1;
  cfg.queue_capacity = 4;
  cfg.analyst_queue_capacity = 2;
  QueryServer server(canary_trace(), cfg);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool entered = false;
  bool released = false;
  core::failpoint::ScopedFailpoint block_dispatch(
      "serve.dispatch", [&](std::string_view) {
        std::unique_lock<std::mutex> lock(gate_mu);
        entered = true;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return released; });
      });

  const std::uint64_t rejected_before =
      core::builtin_metrics::serve_requests_rejected().value();
  const std::uint64_t shed_before =
      core::builtin_metrics::serve_requests_shed().value();

  ResponseLog log;
  std::uint64_t id = 0;
  // Request 1 is dequeued and blocks inside serve.dispatch (wait for it
  // to get there), so it occupies no queue slot; alice may then queue 2
  // more.
  server.submit_frame(request_line(++id, "alice", "count", 0.125),
                      log.sink());
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return entered; });
  }
  server.submit_frame(request_line(++id, "alice", "count", 0.125),
                      log.sink());
  server.submit_frame(request_line(++id, "alice", "count", 0.125),
                      log.sink());
  // Alice's FIFO (capacity 2) is full: backpressure, answered inline.
  server.submit_frame(request_line(++id, "alice", "count", 0.125),
                      log.sink());
  EXPECT_EQ(error_code(log.by_id().at(id)), "backpressure");
  // Other analysts fill the server-wide queue (capacity 4: alice's 2 +
  // these 2)...
  server.submit_frame(request_line(++id, "bob", "count", 0.125),
                      log.sink());
  server.submit_frame(request_line(++id, "carol", "count", 0.125),
                      log.sink());
  // ...so the next arrival anywhere is shed.
  server.submit_frame(request_line(++id, "dave", "count", 0.125),
                      log.sink());
  EXPECT_EQ(error_code(log.by_id().at(id)), "overloaded");

  EXPECT_EQ(core::builtin_metrics::serve_requests_rejected().value(),
            rejected_before + 1);
  EXPECT_EQ(core::builtin_metrics::serve_requests_shed().value(),
            shed_before + 1);

  {
    const std::lock_guard<std::mutex> lock(gate_mu);
    released = true;
  }
  gate_cv.notify_all();
  server.drain();

  // All 7 frames answered exactly once; the 5 admitted ones are ok.
  const auto by_id = log.by_id();
  ASSERT_EQ(by_id.size(), 7u);
  std::size_t ok = 0;
  for (const auto& [frame_id, line] : by_id) {
    if (line.find("\"status\":\"ok\"") != std::string::npos) ++ok;
  }
  EXPECT_EQ(ok, 5u);
  // Refused admissions charged nothing: 5 admitted * 0.125 each.
  EXPECT_DOUBLE_EQ(server.dataset_spent(), 0.625);
}

// --- aborted releases charge nothing -------------------------------------

// A request killed mid-query (abort injected at the release/charge
// boundary) answers "aborted:cancelled" and charges nothing, while the
// charges of earlier and later releases stand untouched — the server-side
// face of the charge-before-release invariant.
TEST(ServeRobustness, AbortedReleaseChargesNothingEarlierChargesStand) {
  ServerConfig cfg;
  cfg.dataset_budget = 8.0;
  cfg.analyst_cap = 2.0;
  cfg.threads = 4;
  QueryServer server(canary_trace(), cfg);

  ResponseLog log;
  server.submit_frame(request_line(1, "alice", "count", 0.25), log.sink());
  server.drain();
  EXPECT_DOUBLE_EQ(server.analyst_spent("alice"), 0.25);

  {
    core::failpoint::ScopedFailpoint kill(
        "core.release.charge", [](std::string_view) {
          throw core::QueryAbortedError(core::AbortReason::kCancelled,
                                        "injected mid-query kill", 0);
        });
    server.submit_frame(request_line(2, "alice", "count", 0.5), log.sink());
    server.drain();
  }
  EXPECT_EQ(error_code(log.by_id().at(2)), "aborted:cancelled");
  // The aborted release charged nothing...
  EXPECT_DOUBLE_EQ(server.analyst_spent("alice"), 0.25);

  server.submit_frame(request_line(3, "alice", "count", 0.125), log.sink());
  server.drain();
  // ...and the books pick up exactly where they left off.
  EXPECT_DOUBLE_EQ(server.analyst_spent("alice"), 0.375);
  const core::obs::JournalVerification v = core::obs::verify_journal_text(
      core::obs::EventJournal::global().to_jsonl(true));
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.charges, 2u);
  // The injected kill fired the armed failpoint once; the guard itself
  // never tripped, so no abort event — the journal still shows exactly
  // which release died and that it charged nothing.
  EXPECT_EQ(v.faults, 1u);
  EXPECT_EQ(v.aborts, 0u);
  EXPECT_DOUBLE_EQ(v.charged_eps, 0.375);
}

// --- multi-analyst reconciliation at 1/4/8 threads -----------------------

struct WorkloadResult {
  std::map<std::uint64_t, std::string> responses;
  std::string jsonl;       // canonical journal flush
  std::string ledger_json;
  double dataset_spent = 0.0;
};

double ledger_sum(const std::string& ledger_json) {
  const core::JsonValue doc = core::parse_json(ledger_json);
  double sum = 0.0;
  for (const core::JsonValue& e : doc.find("entries")->array) {
    sum += e.find("eps")->number;
  }
  return sum;
}

double trace_sum(const core::JsonValue& span) {
  double total = 0.0;
  if (const core::JsonValue* eps = span.find("eps_charged");
      eps != nullptr && eps->is_number()) {
    total += eps->number;
  }
  if (const core::JsonValue* children = span.find("children");
      children != nullptr) {
    for (const core::JsonValue& child : children->array) {
      total += trace_sum(child);
    }
  }
  return total;
}

double trace_sum_json(const std::string& trace_json) {
  const core::JsonValue doc = core::parse_json(trace_json);
  double total = 0.0;
  for (const core::JsonValue& span : doc.find("spans")->array) {
    total += trace_sum(span);
  }
  return total;
}

/// Three analysts, interleaved queries, one genuine per-analyst cap
/// refusal, one exact-fit release.  Per-analyst sequences are fixed, so
/// responses must be byte-identical at any thread count.
WorkloadResult run_workload(std::size_t threads) {
  ServerConfig cfg;
  cfg.dataset_budget = 4.0;
  cfg.analyst_cap = 1.0;
  cfg.threads = threads;
  QueryServer server(canary_trace(), cfg);

  ResponseLog log;
  std::uint64_t id = 0;
  const std::vector<std::string> analysts = {"alice", "bob", "carol"};
  // Each analyst: 0.5 + 0.375 spent, a 0.25 attempt refused at the 1.0
  // cap (0.875 + 0.25 > 1), then 0.125 fits exactly.
  for (const double eps : {0.5, 0.375, 0.25, 0.125}) {
    for (const std::string& analyst : analysts) {
      const std::string query =
          eps == 0.375 ? "count-tcp" : (eps == 0.125 ? "count-udp" : "count");
      server.submit_frame(request_line(++id, analyst, query, eps),
                          log.sink());
    }
  }
  server.drain();

  WorkloadResult r;
  r.responses = log.by_id();
  r.jsonl = core::obs::EventJournal::global().to_jsonl(true);
  r.ledger_json = server.ledger_json();
  r.dataset_spent = server.dataset_spent();

  // Trace reconciliation while the server is alive: recovery spans plus
  // one root span per executed request.
  const double trace_eps = trace_sum_json(server.trace_json());
  EXPECT_DOUBLE_EQ(trace_eps, r.dataset_spent) << "threads=" << threads;
  return r;
}

TEST(ServeRobustness, MultiAnalystBooksReconcileAcrossThreadCounts) {
  const WorkloadResult sequential = run_workload(1);
  // 3 analysts * (0.5 + 0.375 + 0.125) spent, the 0.25 attempts refused.
  EXPECT_DOUBLE_EQ(sequential.dataset_spent, 3.0);
  const core::obs::JournalVerification v =
      core::obs::verify_journal_text(sequential.jsonl);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.charges, 9u);
  EXPECT_EQ(v.refusals, 3u);
  EXPECT_DOUBLE_EQ(v.charged_eps, 3.0);
  EXPECT_DOUBLE_EQ(v.refused_eps, 0.75);
  for (const std::string analyst : {"alice", "bob", "carol"}) {
    EXPECT_DOUBLE_EQ(v.charged_eps_by_label.at(analyst), 1.0);
  }
  EXPECT_DOUBLE_EQ(ledger_sum(sequential.ledger_json), v.charged_eps);
  EXPECT_EQ(sequential.jsonl.find("payload-canary"), std::string::npos);

  for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    const WorkloadResult parallel = run_workload(threads);
    // Byte-identical responses: per-analyst serial dispatch keeps plan
    // derivations and release ordinals in request order, so the noise is
    // the same at any thread count.
    EXPECT_EQ(parallel.responses, sequential.responses)
        << "threads=" << threads;
    // Byte-identical canonical journal and ledger, same as the engine's
    // determinism contract.
    EXPECT_EQ(parallel.jsonl, sequential.jsonl) << "threads=" << threads;
    EXPECT_EQ(parallel.ledger_json, sequential.ledger_json);
  }
}

// A long-lived server's trace stays bounded: requests older than the
// kRecentTraces most recent fold into one "serve.folded" span with their
// count and charged epsilon, so the trace's epsilon sum still covers
// every request exactly.
TEST(ServeRobustness, TraceFoldsOldRequestsAndStillReconciles) {
  ServerConfig cfg;
  cfg.dataset_budget = 64.0;
  cfg.analyst_cap = 64.0;
  cfg.threads = 2;
  cfg.queue_capacity = 4096;
  cfg.analyst_queue_capacity = 4096;
  QueryServer server(canary_trace(), cfg);
  constexpr std::size_t kExtra = 100;
  ResponseLog log;
  for (std::uint64_t id = 1; id <= QueryServer::kRecentTraces + kExtra;
       ++id) {
    server.submit_frame(request_line(id, "alice", "count", 0.015625),
                        log.sink());
  }
  server.drain();
  EXPECT_DOUBLE_EQ(server.dataset_spent(),
                   0.015625 * (QueryServer::kRecentTraces + kExtra));

  const core::JsonValue doc = core::parse_json(server.trace_json());
  const std::vector<core::JsonValue>& spans = doc.find("spans")->array;
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().find("op")->string, "serve.folded");
  EXPECT_EQ(spans.front().find("detail")->string, std::to_string(kExtra));
  EXPECT_DOUBLE_EQ(spans.front().find("eps_charged")->number,
                   0.015625 * kExtra);
  EXPECT_DOUBLE_EQ(trace_sum_json(server.trace_json()),
                   server.dataset_spent());
}

// --- injected dispatch/write faults --------------------------------------

// An injected fault at serve.dispatch answers "internal" (sanitized, no
// failpoint text) and the server keeps serving; an injected fault at
// serve.session.write drops the response but the charge stands.
TEST(ServeRobustness, DispatchAndWriteFaultsDegradeCleanly) {
  ServerConfig cfg;
  cfg.dataset_budget = 8.0;
  cfg.analyst_cap = 4.0;
  QueryServer server(canary_trace(), cfg);

  ResponseLog log;
  {
    core::failpoint::ScopedFailpoint fp(
        "serve.dispatch",
        [](std::string_view) { throw std::runtime_error(kCanary); });
    server.submit_frame(request_line(1, "alice", "count", 0.25), log.sink());
    server.drain();
  }
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(error_code(log.lines.front()), "internal");
  EXPECT_EQ(log.lines.front().find(kCanary), std::string::npos)
      << "injected exception text crossed the privacy boundary";
  EXPECT_DOUBLE_EQ(server.analyst_spent("alice"), 0.0);

  {
    core::failpoint::ScopedFailpoint fp(
        "serve.session.write",
        [](std::string_view) { throw std::runtime_error("broken pipe"); });
    server.submit_frame(request_line(2, "alice", "count", 0.25), log.sink());
    server.drain();
  }
  // The response was dropped on the floor...
  EXPECT_EQ(log.size(), 1u);
  // ...but the charge stands (charged epsilon is never refunded).
  EXPECT_DOUBLE_EQ(server.analyst_spent("alice"), 0.25);

  server.submit_frame(request_line(3, "alice", "count", 0.25), log.sink());
  server.drain();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_NE(log.by_id().at(3).find("\"status\":\"ok\""), std::string::npos);
  EXPECT_DOUBLE_EQ(server.analyst_spent("alice"), 0.5);
}

// --- hostile numeric wire fields -----------------------------------------

// Every integral wire field is bounded BEFORE its double -> uint64 cast:
// a hostile {"id":1e300} (or deadline_ms/port) must be a sanitized
// refusal, never undefined behavior on the cast (the repo gates on
// UBSan).
TEST(ServeRobustness, HostileNumericFieldsAreBoundedBeforeCast) {
  EXPECT_THROW(
      protocol::parse_request(
          "{\"id\":1e300,\"analyst\":\"a\",\"query\":\"count\",\"eps\":1}"),
      core::InvalidQueryError);
  EXPECT_THROW(protocol::parse_request(
                   "{\"id\":1,\"analyst\":\"a\",\"query\":\"count\","
                   "\"eps\":1,\"deadline_ms\":1e300}"),
               core::InvalidQueryError);
  // deadline_ms has a field max (one day) so the server's chrono
  // arithmetic stays far from overflow.
  EXPECT_THROW(protocol::parse_request(
                   "{\"id\":1,\"analyst\":\"a\",\"query\":\"count\","
                   "\"eps\":1,\"deadline_ms\":86400001}"),
               core::InvalidQueryError);
  EXPECT_THROW(protocol::parse_request(
                   "{\"id\":1,\"analyst\":\"a\",\"query\":\"count\","
                   "\"eps\":1,\"port\":70000}"),
               core::InvalidQueryError);
  // 2^53 — the largest exactly-representable JSON integer — is the
  // inclusive ceiling for unconstrained fields like id; 2^54 is out.
  EXPECT_EQ(protocol::parse_request(
                "{\"id\":9007199254740992,\"analyst\":\"a\","
                "\"query\":\"count\",\"eps\":1}")
                .id,
            std::uint64_t{1} << 53);
  EXPECT_THROW(protocol::parse_request(
                   "{\"id\":18014398509481984,\"analyst\":\"a\","
                   "\"query\":\"count\",\"eps\":1}"),
               core::InvalidQueryError);

  // On the wire the refusal is a sanitized invalid-query (the bogus id
  // is not recoverable, so it echoes as 0) and the server keeps serving.
  QueryServer server(canary_trace(), ServerConfig{});
  ResponseLog log;
  server.submit_frame(
      "{\"id\":1e300,\"analyst\":\"alice\",\"query\":\"count\",\"eps\":1}",
      log.sink());
  server.drain();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(error_code(log.lines.front()), "invalid-query");
  server.submit_frame(request_line(2, "alice", "count", 0.125), log.sink());
  server.drain();
  EXPECT_NE(log.by_id().at(2).find("\"status\":\"ok\""), std::string::npos);
}

// --- no journal cliff -----------------------------------------------------

// The journal file, not the ring, is the record: once the global ring
// has been filled past its capacity (it just evicts), a journaled server
// still answers every request ok, and its file verifies and replays
// exactly across chained restarts.  Nothing written to the file may
// carry the ring's lifetime eviction count — recovery refuses a journal
// that reports drops.
TEST(ServeRobustness, FullRingNeitherRefusesNorStrandsTheJournal) {
  const std::string path = ::testing::TempDir() + "/serve_no_cliff.jsonl";
  std::remove(path.c_str());
  ServerConfig cfg;
  cfg.threads = 4;
  cfg.journal_path = path;
  core::obs::EventJournal& journal = core::obs::EventJournal::global();
  const std::uint64_t dropped_before = journal.dropped();
  for (std::size_t i = 0; i < journal.capacity() + 16; ++i) {
    core::obs::emit_task_begin(0);
  }
  ASSERT_GT(journal.dropped(), dropped_before);

  double spent = 0.0;
  {
    QueryServer server(canary_trace(), cfg);
    // Submitted together, so the workers' commits contend and group.
    ResponseLog log;
    for (std::uint64_t id = 1; id <= 8; ++id) {
      server.submit_frame(
          request_line(id, id % 2 == 0 ? "alice" : "bob", "count", 0.125),
          log.sink());
    }
    server.drain();
    ASSERT_EQ(log.size(), 8u);
    for (const auto& [id, line] : log.by_id()) {
      EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
          << "id " << id << ": " << line;
    }
    spent = server.dataset_spent();
    EXPECT_DOUBLE_EQ(spent, 1.0);
    const core::obs::JournalVerification v =
        core::obs::verify_journal_file(path);
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.dropped, 0u);
    EXPECT_EQ(v.charges, 8u);
    EXPECT_DOUBLE_EQ(v.charged_eps, spent);
  }

  // Chained restarts: the first republishes (compacts) the file, the
  // second replays that file.
  for (int restart = 0; restart < 2; ++restart) {
    QueryServer again(canary_trace(), cfg);
    EXPECT_DOUBLE_EQ(again.dataset_spent(), spent) << "restart " << restart;
    EXPECT_DOUBLE_EQ(again.analyst_spent("alice"), 0.5);
    EXPECT_DOUBLE_EQ(again.analyst_spent("bob"), 0.5);
    again.flush_journal();
    const core::obs::JournalVerification v =
        core::obs::verify_journal_file(path);
    ASSERT_TRUE(v.ok) << v.error << " (restart " << restart << ")";
    EXPECT_EQ(v.dropped, 0u);
    EXPECT_DOUBLE_EQ(v.charged_eps, again.dataset_spent());
  }
}

// --- the deadline covers queue wait ---------------------------------------

// The deadline clock starts at admission, so time spent before execution
// (queue wait under backpressure; here a stalled dispatch stands in for
// it deterministically) counts: a request that overstays its deadline
// waiting is aborted at the guard's first checkpoint and charges
// nothing.
TEST(ServeRobustness, DeadlineCountsTimeQueuedBeforeExecution) {
  ServerConfig cfg;
  cfg.threads = 1;
  QueryServer server(canary_trace(), cfg);

  core::failpoint::ScopedFailpoint stall(
      "serve.dispatch", [](std::string_view) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
  ResponseLog log;
  server.submit_frame(
      "{\"id\":1,\"analyst\":\"late\",\"query\":\"count\",\"eps\":0.25,"
      "\"deadline_ms\":5}",
      log.sink());
  server.drain();
  EXPECT_EQ(error_code(log.by_id().at(1)), "aborted:deadline");
  EXPECT_DOUBLE_EQ(server.analyst_spent("late"), 0.0);
}

// Session-limit refusals are explicit and sanitized.
TEST(ServeRobustness, SessionLimitAnswersExplicitly) {
  ServerConfig cfg;
  cfg.max_sessions = 2;
  QueryServer server(canary_trace(), cfg);

  ResponseLog log;
  server.submit_frame(request_line(1, "alice", "count", 0.125), log.sink());
  server.submit_frame(request_line(2, "bob", "count", 0.125), log.sink());
  server.submit_frame(request_line(3, "mallory", "count", 0.125),
                      log.sink());
  server.drain();
  EXPECT_EQ(error_code(log.by_id().at(3)), "session-limit");
  EXPECT_EQ(server.sessions(), 2u);
}

}  // namespace
}  // namespace dpnet::serve
