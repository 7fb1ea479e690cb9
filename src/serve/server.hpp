// Mediated query server: admission control, backpressure, and
// crash-safe budget recovery (paper §2's deployment model as a
// long-running daemon).
//
// A QueryServer loads a trace once and serves many concurrent analyst
// sessions over the line-delimited JSON protocol in serve/protocol.hpp.
// All sessions share one immutable copy of the trace, and each query's
// filter runs fused into its count, scanning that copy in place.
// Each analyst principal gets a session on first contact: a
// CappedBudget carved out of the shared dataset RootBudget, wrapped in
// an AuditingBudget labeled with the analyst's name (so the existing
// budget.*.<label> gauges and journal causal keys light up per
// analyst), plus a private Queryable view whose noise stream is seeded
// from (server seed, analyst name) — session isolation by construction.
//
// The degradation ladder (docs/robustness.md):
//
//   admit -> queue -> backpressure -> shed -> abort
//
// Admission places a request on its analyst's bounded FIFO; a full
// analyst queue answers "backpressure" (serve.requests.rejected), a
// full server-wide queue answers "overloaded" (serve.requests.shed),
// and an admitted request that outlives its deadline is aborted by its
// QueryGuard ("aborted:deadline"), which — by the charge-before-release
// invariant — charges nothing.  The deadline clock starts at admission,
// so time spent queued under backpressure counts against it: the guard
// is constructed with whatever remains of the deadline at dispatch
// (possibly nothing, in which case its first checkpoint aborts before
// any charge).
//
// Dispatch is round-robin across analysts with AT MOST ONE in-flight
// request per analyst.  That is a fairness policy and a determinism
// contract at once: each session's plan derivations and release
// ordinals advance serially in that analyst's request order, so for a
// fixed seed the responses are byte-identical at any thread count
// (docs/architecture.md's determinism contract, extended to the server).
// Worker execution rides the core::exec thread pool — the serve layer
// creates no threads of its own (lint rule R7).
//
// Crash safety: every charge and refusal is journaled through
// src/core/obs/ with the analyst label as its causal key, and the
// journal file is an append-only log (EventJournal::open_log/commit).
// After executing a request, its worker commits: the events emitted
// since the last commit are appended as one batch with one write() and
// one fdatasync(), and only then is the response frame handed to the
// transport — if the analyst saw an answer, the charge is durable.
// Workers that finish together share one append (group commit on the
// pool threads: a worker whose events another worker's fdatasync
// covered returns without a syscall).  The first commit of a server
// lifetime publishes recovery's charges plus any new events
// crash-atomically (temp file + fsync + rename), so every restart
// compacts the file.  On restart the server replays the file (hash-chain
// verified; a tampered or truncated journal refuses startup, except for
// an incomplete final batch, which no response acknowledged) and
// re-charges each analyst's spent epsilon against fresh budgets: a crash
// can never refund budget.  The file, not the in-memory ring, is the
// record: events bypass the ring while the log is open, so nothing about
// the ring limits the server's lifetime.  See "Crash-safe budget
// recovery" in docs/robustness.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <vector>

#include <atomic>

#include "core/audit.hpp"
#include "core/exec/thread_pool.hpp"
#include "core/obs/snapshot.hpp"
#include "core/queryable.hpp"
#include "core/trace.hpp"
#include "net/packet.hpp"
#include "serve/protocol.hpp"

namespace dpnet::serve {

struct ServerConfig {
  double dataset_budget = 8.0;   // shared RootBudget across all analysts
  double analyst_cap = 1.0;      // per-analyst CappedBudget
  std::size_t threads = 4;       // exec pool width (>= 1)
  std::size_t queue_capacity = 64;         // server-wide admitted, undispatched
  std::size_t analyst_queue_capacity = 8;  // per-analyst FIFO bound
  std::uint64_t default_deadline_ms = 2000;  // guard deadline when a
                                             // request names none
  std::uint64_t max_total_rows = 0;  // per-request work quota (0 = off)
  std::uint64_t seed = 42;           // noise/plan seed base
  std::size_t max_sessions = 16;     // distinct analyst principals
  std::string journal_path;  // durable journal; empty = in-memory only.
                             // If the file exists at startup it is
                             // verified and replayed (budget recovery).
  std::string ops_snapshot_path;  // live dpnet.ops.v1 snapshot for
                                  // `dpnet_cli top`; empty = off
  std::uint64_t ops_snapshot_interval_ms = 1000;  // snapshot cadence
  double burn_alert_eta_s = 0.0;  // arm budget.alert journal events when
                                  // an analyst's projected time-to-
                                  // exhaustion drops below this many
                                  // seconds (0 = alerts off)
};

/// Per-analyst recovered spend, for the operator's startup summary.
struct RecoveredBudget {
  std::string analyst;
  double eps = 0.0;
};

class QueryServer {
 public:
  /// Receives one serialized response frame (no trailing newline).
  /// Sinks are called from pool worker threads; the server serializes
  /// calls per request but not across analysts — wrap shared streams in
  /// a lock.
  using ResponseSink = std::function<void(const std::string& line)>;

  /// Keeps the trace as one immutable copy that every analyst session
  /// shares and scans in place (no per-session or per-request copy), and
  /// claims the process-wide event journal: the ring is cleared, and with
  /// `config.journal_path` the durable log opens (one journaled server
  /// per process) and — if the path names an existing file — the
  /// previous incarnation's journal is verified and replayed into fresh
  /// budgets.  No file is written until the first commit.  Throws DpError
  /// when the journal fails verification or a recovered spend no longer
  /// fits its cap.
  QueryServer(std::vector<net::Packet> records, ServerConfig config);

  /// Drains in-flight work, then stops.  Commits nothing: call
  /// flush_journal() first for an orderly shutdown.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Admits (or refuses) one request frame.  Admission-layer refusals —
  /// malformed frames, session limit, backpressure, shed — are answered
  /// synchronously on the calling thread; admitted requests are
  /// answered from a pool worker after execution.  Never throws.
  void submit_frame(const std::string& line, ResponseSink sink);

  /// Blocks until every admitted request has been answered.
  void drain();

  /// Open analyst sessions.
  [[nodiscard]] std::size_t sessions() const;

  /// Epsilon consumed from the shared dataset budget so far.
  [[nodiscard]] double dataset_spent() const;

  /// Epsilon consumed by one analyst (0.0 for an unknown principal).
  [[nodiscard]] double analyst_spent(const std::string& analyst) const;

  /// Per-analyst spends replayed from the journal at startup.
  [[nodiscard]] const std::vector<RecoveredBudget>& recovered() const {
    return recovered_;
  }

  /// Merged audit ledger across every session, canonical order —
  /// sessions by analyst name, each session's entries by charging node
  /// id.  Same shape as AuditingBudget::to_json, so `dpnet_cli audit
  /// verify` reconciles it directly.
  [[nodiscard]] std::string ledger_json() const;

  /// The server-wide query trace, canonical JSON: the recovery spans,
  /// one "serve.folded" span carrying the count (as its detail) and the
  /// charged epsilon of requests older than the kRecentTraces most
  /// recent, then one root span per recent request.  Its epsilon sum
  /// covers every executed request, so it reconciles with the ledger and
  /// the journal over any lifetime while its size stays bounded.
  [[nodiscard]] std::string trace_json() const;

  /// Request span trees trace_json() keeps in full.
  static constexpr std::size_t kRecentTraces = 1024;

  /// Commit barrier: makes every journal event emitted so far durable in
  /// `journal_path` (no-op when unset; creates the file if no response
  /// has yet).  Called automatically before every executed request's
  /// response; exposed for a final commit at shutdown.  Throws DpError
  /// on I/O failure.
  void flush_journal() const;

  /// The live ops document, schema "dpnet.ops.v1": queue depth,
  /// in-flight count, per-analyst budgets with burn-rate forecasts,
  /// latency percentiles, peak RSS, and scan throughput.  Accounting
  /// metadata only (lint R6); `dpnet_cli top` renders it.
  [[nodiscard]] std::string ops_snapshot_json() const;

  /// Publishes ops_snapshot_json() to `ops_snapshot_path` through the
  /// cadenced atomic writer (no-op when unset; `force` skips the
  /// cadence for startup/shutdown edges).  Never throws.
  void write_ops_snapshot(bool force = false);

 private:
  struct Pending {
    protocol::Request request;
    ResponseSink sink;
    // Admission stamp: the request's deadline is measured from here, so
    // queue wait counts against it.
    std::chrono::steady_clock::time_point admitted;
  };

  struct Session {
    std::string analyst;
    std::shared_ptr<core::AuditingBudget> audit;
    std::unique_ptr<core::Queryable<net::Packet>> view;
    std::deque<Pending> queue;
    bool running = false;    // a worker is executing this analyst's head
    bool scheduled = false;  // sitting in the runnable ring
  };

  // Looks up (creating on demand) the session for `analyst`; locked by
  // the caller.  Fires serve.accept unless `recovering`.
  Session& session_for(const std::string& analyst, bool recovering);

  // Verifies and replays `path` into fresh per-analyst budgets.
  void recover_from_journal(const std::string& path);

  // Round-robin drainer body, run on pool workers.
  void drain_loop();

  // Executes one request against its session; returns the response
  // frame.  `admitted` anchors the deadline (queue wait counts).  Never
  // throws — failures become sanitized error responses.
  [[nodiscard]] std::string execute(
      Session& session, const protocol::Request& req,
      std::chrono::steady_clock::time_point admitted);

  // Runs the named query on the session's view.
  [[nodiscard]] double run_query(Session& session,
                                 const protocol::Request& req);

  // Hands `line` to `sink` behind the serve.session.write failpoint; a
  // failed write drops the response (the charge stands) and the server
  // keeps serving.
  void write_response(const std::string& analyst, const ResponseSink& sink,
                      const std::string& line) const;

  ServerConfig cfg_;
  std::shared_ptr<const std::vector<net::Packet>> records_;  // shared
  std::shared_ptr<core::PrivacyBudget> root_;

  mutable std::mutex mutex_;  // sessions, queues, dispatch state
  std::condition_variable drained_cv_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::deque<Session*> runnable_;
  std::size_t queued_total_ = 0;
  std::size_t running_total_ = 0;
  std::size_t drainers_ = 0;

  mutable std::mutex trace_mutex_;
  core::QueryTrace trace_;               // recovery spans
  std::deque<core::QueryTrace> recent_;  // the latest request span trees
  std::uint64_t folded_requests_ = 0;    // older requests, summarized
  double folded_eps_ = 0.0;

  std::vector<RecoveredBudget> recovered_;

  std::chrono::steady_clock::time_point started_;
  std::atomic<std::uint64_t> frames_executed_{0};
  std::atomic<std::uint64_t> rows_processed_{0};
  std::unique_ptr<core::obs::OpsSnapshotWriter> snapshot_;

  core::exec::ThreadPool pool_;
};

}  // namespace dpnet::serve
