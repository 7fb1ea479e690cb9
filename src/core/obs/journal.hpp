// Privacy event journal: the durable, tamper-evident ops record for a
// mediated-analysis service.
//
// The audit ledger (core/audit.hpp) accounts for successful charges only
// and dies with the process; the data owner operating the paper's §3
// mediated model also needs the *events* — refusals, guard aborts, task
// lifecycle, injected faults, quarantined records — in a form that can be
// made durable, shipped off-box, and verified offline.  EventJournal is
// that record: a lock-protected ring of structured events, serialized as
// schema-versioned JSONL ("dpnet.events.v1") whose lines are FNV-1a
// hash-chained (the same fingerprint idiom as dpnet-lint) so a single
// flipped byte breaks the chain.  `dpnet_cli audit verify` replays a
// journal file and reconciles its epsilon sums against the audit ledger
// and the query trace (docs/observability.md).
//
// Two ways onto disk, one line grammar:
//
//   * the offline flush (to_jsonl / flush_to_file) serializes the ring
//     as one document: a header line counting the records that follow,
//     then the records;
//   * the durable log (open_log / commit) is what a long-lived server
//     writes.  Its first commit publishes the same kind of document,
//     crash-atomically; every later commit appends only the events
//     emitted since, as a batch of records closed by a line that counts
//     them, with one write() plus one fdatasync().  Concurrent commits
//     group: a caller whose events another caller's fdatasync already
//     covered returns without a syscall.
//
// Once a log is open the file, not the ring, is the record: events go
// to the log's commit queue instead of the ring, which stays a bounded
// read cache for `events()` and the offline flush of runs without a log
// (and may evict).
//
// Determinism: the canonical flush stable-sorts events by their causal
// key (plan-node id for charges/refusals, a salted task index for
// executor lifecycle events) and renumbers sequence ids, and it omits
// wall-clock timestamps — so parallel runs of the same pipeline flush a
// byte-identical canonical journal at any thread count, exactly like the
// canonical audit ledger (docs/architecture.md).  The arrival-order
// flush and the durable log keep timestamps and original sequence
// numbers.
//
// Privacy stance: events carry accounting metadata only — kinds, labels,
// node ids, epsilons, operator/mechanism names — never record contents.
// dpnet-lint rule R6 pins the serialized field set.
//
// Overhead: emission sites compile down to one relaxed atomic load when
// the journal is disarmed (set_journal_armed(false)); the armed cost is
// one mutex-protected ring (or, with a log open, queue) append per
// *event* (releases, tasks, faults — never per record).
// bench_micro_engine A/Bs both configurations under the same <2% bound
// as the tracing layer (bench_schema_check).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/hash.hpp"

namespace dpnet::core::obs {

/// What happened.  Names are serialized; keep them in sync with
/// event_kind_name() and docs/observability.md.
enum class EventKind : std::uint8_t {
  kCharge,      // a budget admitted an epsilon charge
  kRefusal,     // a budget refused a charge (nothing was consumed)
  kAbort,       // a QueryGuard tripped (deadline/cancel/quota)
  kTaskBegin,   // an executor task started
  kTaskEnd,     // an executor task finished ("ok" or "error" in detail)
  kFault,       // an armed failpoint fired
  kQuarantine,  // the degraded trace reader skipped a malformed record
  kBudgetAlert,  // burn-rate forecast crossed the armed ETA threshold
};

[[nodiscard]] constexpr const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kCharge: return "charge";
    case EventKind::kRefusal: return "refusal";
    case EventKind::kAbort: return "abort";
    case EventKind::kTaskBegin: return "task.begin";
    case EventKind::kTaskEnd: return "task.end";
    case EventKind::kFault: return "fault";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kBudgetAlert: return "budget.alert";
  }
  return "unknown";
}

/// One journal record.  `node_id` doubles as the causal key the
/// canonical flush sorts on: the charging plan node for charge/refusal/
/// fault events, mix64(kTaskSalt, index) for task lifecycle events, 0
/// for process-scoped events (aborts, quarantines).
struct Event {
  std::uint64_t seq = 0;    // arrival order, monotone per journal
  std::int64_t ts_us = -1;  // steady-clock stamp since the trace epoch
  EventKind kind = EventKind::kCharge;
  std::string label;        // analyst label ("" outside a labeled scope)
  std::uint64_t node_id = 0;
  double eps = 0.0;
  std::string detail;       // mechanism / failpoint / reason — names only
};

/// FNV-1a over `text`, continuing from `basis` — the hash-chain
/// primitive.  Chain link i is fnv1a(record-body i, link i-1), so
/// changing any byte of any record invalidates every later link.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text,
                                         std::uint64_t basis = kFnvOffset) {
  std::uint64_t h = basis;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Salt mixed with the executor task index to form task-event causal
/// keys (keeps them disjoint from plan-node ids, which mix from the
/// plan-shape salts).
inline constexpr std::uint64_t kTaskSalt = 0x6a6f75726e616c74ULL;

/// Bounded event ring plus an optional durable log.  All appends are
/// serialized on one mutex; once the ring is full, the oldest event is
/// overwritten and counted in dropped() — the ring degrades by
/// forgetting history, never by blocking the engine.  While a log is
/// open, events bypass the ring and queue for the log (see open_log).
class EventJournal {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  /// The process-wide journal all engine emission sites append to.
  static EventJournal& global();

  explicit EventJournal(std::size_t capacity = kDefaultCapacity);
  ~EventJournal();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  void append(EventKind kind, std::string label, std::uint64_t node_id,
              double eps, std::string detail);

  /// Events in arrival order (oldest retained first).
  [[nodiscard]] std::vector<Event> events() const;

  /// Events in canonical flush order: stable-sorted by causal key, so
  /// one node's (or task's) events keep their per-thread order while the
  /// cross-thread interleaving becomes schedule-independent.
  [[nodiscard]] std::vector<Event> canonical_events() const;

  /// Total events ever appended / overwritten by the bounded ring.
  [[nodiscard]] std::uint64_t appended() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Discards retained events (appended/dropped counters keep counting
  /// from where they were; sequence numbers stay monotone).  Events an
  /// open log has not committed yet stay queued for it.
  void clear();

  /// Serializes the ring as hash-chained JSONL, schema
  /// "dpnet.events.v1": a header line {"schema","events","dropped",
  /// "chain"} — "dropped" counts the events evicted since the last
  /// clear(), i.e. what this document is missing — followed by its
  /// "events" records, one per line, each ending in a "chain" field over
  /// every byte that precedes it (including all earlier lines).
  /// `canonical` (the default) emits the
  /// schedule-independent ordering with renumbered seq and no timestamps
  /// — byte-identical across thread counts for a fixed seed; arrival
  /// order keeps seq and ts_us for tailing.  The durable log's file
  /// starts with the same kind of document (see open_log).
  [[nodiscard]] std::string to_jsonl(bool canonical = true) const;

  /// Atomically replaces `path` with to_jsonl() through
  /// publish_atomically (temp file, fsync, rename): a crash at any
  /// instant leaves either the previous complete document or the new
  /// one.  Throws DpError on I/O failure; the `obs.journal.flush`
  /// failpoint fires between durability and publication.
  void flush_to_file(const std::string& path, bool canonical = true) const;

  /// Opens the durable log at `path` (replacing any log already open):
  /// from now on every append is queued for commit() instead of entering
  /// the ring.  Touches no file; the first commit does.
  void open_log(const std::string& path);

  /// Makes every event appended so far durable in the log (no-op when
  /// none is open).  The first commit after open_log publishes the
  /// queued events as one arrival-order document — header with
  /// "dropped":0, then the records — crash-atomically over whatever
  /// `path` held (so a restarted server compacts its file).  Later
  /// commits append the events queued since as one batch:
  ///
  ///   {"seq":...,"kind":...,...,"chain":"..."}   x K
  ///   {"events":K,"chain":"..."}
  ///
  /// with one write() and one fdatasync(); the closing line lets a
  /// verifier tell a complete batch from a torn one.  Commits are
  /// serialized, and a caller whose events an earlier caller's
  /// fdatasync covered returns without a syscall (group commit).
  /// Throws DpError on I/O failure; the `obs.journal.flush` failpoint
  /// fires before a batch is written, and a batch that fails is not on
  /// disk afterwards — its events stay queued for the next commit.
  void commit();

  /// Closes the log without committing (queued events are discarded,
  /// the file keeps what earlier commits made durable).
  void close_log();

  /// Events currently retained (at most capacity()).
  [[nodiscard]] std::size_t size() const;

  /// The ring bound; appends beyond it overwrite the oldest event and
  /// count in dropped().
  [[nodiscard]] std::size_t capacity() const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<Event> ring_;   // insertion ring, oldest at head_
  std::size_t head_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t dropped_at_clear_ = 0;
  // Durable log.  `logging_` and `queued_` are guarded by mutex_; the
  // file state below by commit_mutex_, which serializes commits.
  bool logging_ = false;
  std::vector<Event> queued_;  // appended since the last commit took them
  std::mutex commit_mutex_;
  std::string log_path_;
  int log_fd_ = -1;              // open for append once published
  std::uint64_t log_bytes_ = 0;  // durable length of the file
  std::uint64_t log_chain_ = 0;  // chain link of its last line
  std::uint64_t committed_ = 0;  // appended() count the file covers
  bool log_failed_ = false;      // a failed append could not be undone
};

namespace journal_detail {

// Construction-time kill switch, mirroring trace_detail::armed: when
// disarmed every emission site is one relaxed atomic load and nothing is
// recorded.  Defaults to armed — the journal is the always-on ops
// surface for mediated sessions.
inline std::atomic<bool> armed{true};

// Out-of-line slow path: stamps the event and appends to the global
// journal.  Only reached when armed.
void emit(EventKind kind, std::string label, std::uint64_t node_id,
          double eps, std::string detail);

}  // namespace journal_detail

[[nodiscard]] inline bool journal_armed() {
  return journal_detail::armed.load(std::memory_order_relaxed);
}
inline void set_journal_armed(bool on) {
  journal_detail::armed.store(on, std::memory_order_relaxed);
}

/// Emission hooks.  Each is a single relaxed load when disarmed; callers
/// sit on per-release / per-task / per-fault paths, never per record.
inline void emit_charge(std::string label, std::uint64_t node_id,
                        double eps, std::string detail = {}) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kCharge, std::move(label), node_id, eps,
                         std::move(detail));
  }
}
inline void emit_refusal(std::string label, std::uint64_t node_id,
                         double eps) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kRefusal, std::move(label), node_id, eps,
                         {});
  }
}
inline void emit_abort(std::string_view reason) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kAbort, {}, 0, 0.0, std::string(reason));
  }
}
inline void emit_task_begin(std::size_t index) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kTaskBegin, {}, mix64(kTaskSalt, index),
                         0.0, {});
  }
}
inline void emit_task_end(std::size_t index, std::string_view outcome) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kTaskEnd, {}, mix64(kTaskSalt, index),
                         0.0, std::string(outcome));
  }
}
inline void emit_fault(std::string_view failpoint, std::uint64_t node_id) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kFault, {}, node_id, 0.0,
                         std::string(failpoint));
  }
}
inline void emit_quarantine(std::string_view where) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kQuarantine, {}, 0, 0.0,
                         std::string(where));
  }
}
/// Burn-rate forecast crossed the operator's armed ETA threshold
/// (core/obs/burn.hpp).  `remaining_eps` is the analyst's headroom at
/// the moment of the alert — an epsilon, like every journal magnitude.
inline void emit_budget_alert(std::string label, double remaining_eps) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kBudgetAlert, std::move(label), 0,
                         remaining_eps, "eta below threshold");
  }
}

/// Offline verification result (dpnet_cli audit verify, chaos tests).
/// `ok` is false iff the document is structurally invalid or the hash
/// chain does not replay; the tallies summarize what the journal
/// witnessed and feed the journal == ledger == trace reconciliation.
struct JournalVerification {
  bool ok = false;
  std::string error;       // first failure ("" when ok), with line number
  // The only failure is an incomplete final batch: records (or a partial
  // line) after the last closing line, as a crash during an append
  // leaves.  No response acknowledged them, so recovery replays the
  // tallies below, which then cover the complete batches only.
  bool torn_tail = false;
  std::size_t events = 0;  // records verified
  std::uint64_t dropped = 0;
  double charged_eps = 0.0;  // sum over charge events — must equal the
                             // ledger's spend for the same session
  double refused_eps = 0.0;  // sum over refusal events (never consumed)
  // Charged epsilon grouped by audit label.  Charge events carry the
  // analyst label as their causal key, so this is the per-analyst spend a
  // restarted server replays to reconstruct its budgets — the crash-safe
  // recovery path in serve::QueryServer (a crash can never refund ε).
  std::map<std::string, double> charged_eps_by_label;
  std::uint64_t charges = 0;
  std::uint64_t refusals = 0;
  std::uint64_t aborts = 0;
  std::uint64_t tasks = 0;   // task.begin events
  std::uint64_t faults = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t alerts = 0;  // budget.alert events (burn-rate forecasts)
};

/// Replays a journal document (offline flush or durable log): validates
/// the header, every record's shape, the seq numbering, every batch's
/// record count, and the full hash chain; tallies the event sums.  Never
/// throws — structural problems come back as ok == false.
[[nodiscard]] JournalVerification verify_journal_text(std::string_view text);

/// verify_journal_text over the contents of `path` (unreadable file =>
/// ok == false).
[[nodiscard]] JournalVerification verify_journal_file(
    const std::string& path);

}  // namespace dpnet::core::obs
