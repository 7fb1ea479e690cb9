// Mediated query server: admission control, backpressure, and
// crash-safe budget recovery (paper §2's deployment model as a
// long-running daemon).
//
// A QueryServer loads a trace once and serves many concurrent analyst
// sessions over the line-delimited JSON protocol in serve/protocol.hpp.
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
// a journal ring without headroom for another request's events answers
// "journal-full" (also serve.requests.shed — the ring must never drop,
// see below), and an admitted request that outlives its deadline is
// aborted by its QueryGuard ("aborted:deadline"), which — by the
// charge-before-release invariant — charges nothing.  The deadline
// clock starts at admission, so time spent queued under backpressure
// counts against it: the guard is constructed with whatever remains of
// the deadline at dispatch (possibly nothing, in which case its first
// checkpoint aborts before any charge).
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
// journal is flushed (atomically: temp file + fsync + rename) to disk
// BEFORE the response frame is handed to the transport — if the analyst
// saw an answer, the charge is durable.  On restart the server replays
// the flushed journal (hash-chain verified; a tampered or truncated
// journal refuses startup) and re-charges each analyst's spent epsilon
// against fresh budgets: a crash can never refund budget.  Because a
// journal whose ring dropped events can never be replayed, the server
// sizes the ring from `journal_capacity` at startup and, when the ring
// lacks headroom for every in-flight request's worst-case event
// emission, refuses dispatch with "journal-full" instead of letting an
// append overwrite history — a long-lived server degrades to explicit
// refusals, never to an unrecoverable journal.  See "Crash-safe budget
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
  std::size_t journal_capacity = std::size_t{1} << 18;
      // Event-journal ring bound (events, not requests).  The server
      // refuses dispatch with "journal-full" rather than let the ring
      // drop — a dropped event would make the flushed journal
      // unreplayable and strand the next restart.
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

  /// Takes ownership of the trace and claims the process-wide event
  /// journal: the ring is cleared so the journal file reflects exactly
  /// this server's accounting, then — if `config.journal_path` names an
  /// existing file — the previous incarnation's journal is verified and
  /// replayed into fresh budgets.  Throws DpError when the journal
  /// fails verification or a recovered spend no longer fits its cap.
  QueryServer(std::vector<net::Packet> records, ServerConfig config);

  /// Drains in-flight work, then stops.
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

  /// The server-wide query trace (recovery spans plus one root span per
  /// executed request), canonical JSON.
  [[nodiscard]] std::string trace_json() const;

  /// Flushes the event journal to `journal_path` (no-op when unset).
  /// Called automatically before every response that follows a charge
  /// or refusal; exposed for a final flush at shutdown.
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

  // Worst-case journal events one request may emit (task begin/end
  // pairs across its parallel stages plus charge/refusal/abort/fault
  // records); the dispatch-time ring-headroom check reserves this much
  // per in-flight request.
  [[nodiscard]] std::size_t journal_headroom() const;

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
  std::vector<net::Packet> records_;
  std::shared_ptr<core::PrivacyBudget> root_;

  mutable std::mutex mutex_;  // sessions, queues, dispatch state
  std::condition_variable drained_cv_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::deque<Session*> runnable_;
  std::size_t queued_total_ = 0;
  std::size_t running_total_ = 0;
  std::size_t drainers_ = 0;

  mutable std::mutex trace_mutex_;
  core::QueryTrace trace_;

  mutable std::mutex journal_mutex_;  // serializes file flushes

  std::vector<RecoveredBudget> recovered_;

  std::chrono::steady_clock::time_point started_;
  std::atomic<std::uint64_t> frames_executed_{0};
  std::atomic<std::uint64_t> rows_processed_{0};
  std::unique_ptr<core::obs::OpsSnapshotWriter> snapshot_;

  core::exec::ThreadPool pool_;
};

}  // namespace dpnet::serve
