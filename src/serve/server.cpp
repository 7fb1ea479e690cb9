#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <utility>

#include "core/budget.hpp"
#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/guard.hpp"
#include "core/hash.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/noise.hpp"
#include "core/obs/burn.hpp"
#include "core/obs/journal.hpp"
#include "core/obs/log.hpp"
#include "core/obs/resource.hpp"

namespace dpnet::serve {

QueryServer::QueryServer(std::vector<net::Packet> records,
                         ServerConfig config)
    : cfg_(std::move(config)),
      records_(std::move(records)),
      root_(std::make_shared<core::RootBudget>(cfg_.dataset_budget)),
      pool_(std::max<std::size_t>(1, cfg_.threads)) {
  // The server claims the process-wide journal: the ring is cleared so
  // it caches this server's events only, and — with a journal path — the
  // durable log opens before recovery, so the first commit publishes
  // recovery's charges plus everything since (a compacted file), and
  // every later commit appends.
  core::obs::set_journal_armed(true);
  core::obs::EventJournal::global().clear();
  // The burn tracker is claimed the same way: the forecasts reflect this
  // server's lifetime only.
  core::obs::BurnTracker::global().clear();
  started_ = std::chrono::steady_clock::now();
  if (!cfg_.ops_snapshot_path.empty()) {
    snapshot_ = std::make_unique<core::obs::OpsSnapshotWriter>(
        cfg_.ops_snapshot_path,
        std::chrono::milliseconds(cfg_.ops_snapshot_interval_ms));
  }
  if (!cfg_.journal_path.empty()) {
    core::obs::EventJournal::global().open_log(cfg_.journal_path);
    try {
      recover_from_journal(cfg_.journal_path);
    } catch (...) {
      core::obs::EventJournal::global().close_log();
      throw;
    }
  }
  // Arm burn alerting only after recovery: replayed charges land in one
  // burst and would otherwise fire a spurious alert at every restart.
  if (cfg_.burn_alert_eta_s > 0.0) {
    core::obs::BurnTracker::global().set_alert_eta_s(cfg_.burn_alert_eta_s);
  }
  // Publish an initial snapshot so `dpnet_cli top` has a document to
  // render from the moment the server is up.
  write_ops_snapshot(/*force=*/true);
}

QueryServer::~QueryServer() {
  drain();
  // Nothing is committed on the way out: a destroyed server is a crash
  // as far as the file knows (dpnet_cli commits at orderly shutdown).
  if (!cfg_.journal_path.empty()) {
    core::obs::EventJournal::global().close_log();
  }
  // Final snapshot before the gauges drop: it describes the drained
  // server, not a mid-flight one.
  write_ops_snapshot(/*force=*/true);
  core::builtin_metrics::serve_sessions_active().set(0.0);
  core::builtin_metrics::serve_queue_depth().set(0.0);
  // Disarm burn alerting on the way out — the threshold is this
  // server's operator policy, not the process's.
  core::obs::BurnTracker::global().set_alert_eta_s(0.0);
  // pool_ is declared last, so it is destroyed first: outstanding
  // drainer tasks finish against still-live members before anything
  // else unwinds.
}

void QueryServer::recover_from_journal(const std::string& path) {
  {
    const std::ifstream probe(path);
    if (!probe.good()) return;  // first boot: nothing to replay
  }
  const core::obs::JournalVerification v =
      core::obs::verify_journal_file(path);
  if (!v.ok && !v.torn_tail) {
    // Budget state of record failed verification: starting with fresh
    // budgets would refund whatever the tampered/truncated part hid.
    throw core::DpError("journal recovery refused: " + v.error);
  }
  if (v.torn_tail) {
    // A crash mid-append: the batch after the last complete one was
    // never made durable, so no response acknowledged its events.  The
    // first commit republishes the file without it.
    core::obs::log_event(core::obs::LogLevel::kWarn, "serve.recovered", {},
                         0.0, "ignored incomplete final batch");
  }
  if (v.dropped != 0) {
    throw core::DpError("journal recovery refused: the journal ring "
                        "dropped " + std::to_string(v.dropped) +
                        " events, so per-analyst spend cannot be "
                        "reconstructed");
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  const core::TraceSession trace_session(trace_);
  for (const auto& [analyst, eps] : v.charged_eps_by_label) {
    if (eps <= 0.0) continue;
    if (analyst.empty()) {
      throw core::DpError("journal recovery refused: journal carries "
                          "charges without an analyst label");
    }
    Session& session = session_for(analyst, /*recovering=*/true);
    core::TraceScope scope("budget_recovery");
    scope.set_detail(analyst);
    try {
      // Re-charging through the session's AuditingBudget re-emits the
      // journal charge and the ledger entry, so budget == ledger ==
      // journal == trace holds across restarts by induction.
      session.audit->charge(eps);
    } catch (const core::BudgetExhaustedError&) {
      throw core::DpError("journal recovery refused: recovered spend "
                          "for '" + analyst +
                          "' no longer fits the configured cap");
    }
    scope.set_eps(0.0, eps);
    recovered_.push_back(RecoveredBudget{analyst, eps});
  }
}

QueryServer::Session& QueryServer::session_for(const std::string& analyst,
                                               bool recovering) {
  const auto it = sessions_.find(analyst);
  if (it != sessions_.end()) return *it->second;

  if (!recovering) core::failpoint::hit("serve.accept", analyst);

  auto session = std::make_unique<Session>();
  session->analyst = analyst;
  session->audit = std::make_shared<core::AuditingBudget>(
      std::make_shared<core::CappedBudget>(cfg_.analyst_cap, root_));
  session->audit->set_label(analyst);
  // Noise and plan-node ids derive from (server seed, analyst name), so
  // sessions are isolated and reproducible regardless of arrival order.
  const std::uint64_t seed =
      core::mix64(cfg_.seed, core::obs::fnv1a(analyst));
  session->view = std::make_unique<core::Queryable<net::Packet>>(
      records_, session->audit,
      std::make_shared<core::NoiseSource>(seed));

  Session& ref = *session;
  sessions_.emplace(analyst, std::move(session));
  core::builtin_metrics::serve_sessions_active().set(
      static_cast<double>(sessions_.size()));
  return ref;
}

void QueryServer::submit_frame(const std::string& line, ResponseSink sink) {
  protocol::Request req;
  try {
    req = protocol::parse_request(line);
  } catch (...) {
    core::builtin_metrics::serve_requests_rejected().increment();
    core::obs::log_event(core::obs::LogLevel::kWarn, "serve.reject", {}, 0.0,
                         "malformed");
    write_response({}, sink,
                   protocol::error_response(
                       protocol::recover_frame_id(line), {},
                       protocol::classify_current_exception()));
    return;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (sessions_.find(req.analyst) == sessions_.end() &&
      sessions_.size() >= cfg_.max_sessions) {
    core::builtin_metrics::serve_requests_rejected().increment();
    lock.unlock();
    core::obs::log_event(core::obs::LogLevel::kWarn, "serve.reject",
                         req.analyst, 0.0, "session-limit");
    write_response(req.analyst, sink,
                   protocol::error_response(req.id, req.analyst,
                                            {"session-limit", false}));
    return;
  }
  Session* session = nullptr;
  try {
    session = &session_for(req.analyst, /*recovering=*/false);
  } catch (...) {
    core::builtin_metrics::serve_requests_rejected().increment();
    const protocol::WireError err = protocol::classify_current_exception();
    lock.unlock();
    core::obs::log_event(core::obs::LogLevel::kWarn, "serve.reject",
                         req.analyst, 0.0, err.code);
    write_response(req.analyst, sink,
                   protocol::error_response(req.id, req.analyst, err));
    return;
  }

  // The degradation ladder: a full server answers "overloaded" (shed),
  // a full analyst FIFO answers "backpressure"; both are explicit and
  // retryable, and neither touches any budget.
  if (queued_total_ >= cfg_.queue_capacity) {
    core::builtin_metrics::serve_requests_shed().increment();
    lock.unlock();
    core::obs::log_event(core::obs::LogLevel::kWarn, "serve.shed",
                         req.analyst, 0.0, "overloaded");
    write_response(req.analyst, sink,
                   protocol::error_response(req.id, req.analyst,
                                            {"overloaded", true}));
    return;
  }
  if (session->queue.size() >= cfg_.analyst_queue_capacity) {
    core::builtin_metrics::serve_requests_rejected().increment();
    lock.unlock();
    core::obs::log_event(core::obs::LogLevel::kWarn, "serve.reject",
                         req.analyst, 0.0, "backpressure");
    write_response(req.analyst, sink,
                   protocol::error_response(req.id, req.analyst,
                                            {"backpressure", true}));
    return;
  }

  core::obs::log_event(core::obs::LogLevel::kDebug, "serve.admit",
                       req.analyst, req.eps, req.query);
  session->queue.push_back(Pending{std::move(req), std::move(sink),
                                   std::chrono::steady_clock::now()});
  ++queued_total_;
  core::builtin_metrics::serve_queue_depth().set(
      static_cast<double>(queued_total_));
  if (!session->running && !session->scheduled) {
    runnable_.push_back(session);
    session->scheduled = true;
  }
  if (drainers_ < pool_.size()) {
    ++drainers_;
    pool_.submit([this] { drain_loop(); });
  }
}

void QueryServer::drain_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (runnable_.empty()) break;
    // Round-robin across analysts: a session leaves the ring while its
    // head request runs (at most one in flight per analyst — the
    // fairness policy and the per-session determinism contract) and
    // rejoins at the back afterwards if more work is queued.
    Session* session = runnable_.front();
    runnable_.pop_front();
    session->scheduled = false;
    Pending pending = std::move(session->queue.front());
    session->queue.pop_front();
    --queued_total_;
    core::builtin_metrics::serve_queue_depth().set(
        static_cast<double>(queued_total_));
    session->running = true;
    ++running_total_;
    lock.unlock();

    std::string response =
        execute(*session, pending.request, pending.admitted);
    try {
      // Durability before acknowledgement: if the analyst observes a
      // response, the charge behind it is already on disk.  Workers that
      // finish together share one append (group commit).
      flush_journal();
    } catch (...) {
      // The charge stands but could not be made durable; withhold the
      // release value rather than hand out an answer a crash would
      // disown.
      core::obs::log_event(core::obs::LogLevel::kError, "serve.error",
                           session->analyst, 0.0, "journal-flush");
      response = protocol::error_response(pending.request.id,
                                          session->analyst,
                                          {"internal", false});
    }
    // The live snapshot is cadence-limited, so this is one clock read on
    // most iterations.
    write_ops_snapshot();
    write_response(session->analyst, pending.sink, response);

    lock.lock();
    session->running = false;
    --running_total_;
    if (!session->queue.empty() && !session->scheduled) {
      runnable_.push_back(session);
      session->scheduled = true;
    }
  }
  --drainers_;
  if (queued_total_ == 0 && running_total_ == 0) drained_cv_.notify_all();
}

std::string QueryServer::execute(
    Session& session, const protocol::Request& req,
    std::chrono::steady_clock::time_point admitted) {
  core::QueryTrace local;
  std::string response;
  try {
    core::failpoint::hit("serve.dispatch", session.analyst);
    core::QueryGuard::Options options;
    const std::uint64_t deadline_ms =
        req.deadline_ms != 0 ? req.deadline_ms : cfg_.default_deadline_ms;
    if (deadline_ms != 0) {
      // The deadline bounds the admitted lifetime, not just execution:
      // the guard receives the deadline minus the time already spent
      // queued.  A request that overstayed its deadline waiting gets a
      // non-positive timeout, so the guard's first checkpoint aborts it
      // ("aborted:deadline") before anything is charged.
      options.timeout = std::chrono::milliseconds(deadline_ms) -
                        (std::chrono::steady_clock::now() - admitted);
    }
    options.max_total_rows = cfg_.max_total_rows;
    core::QueryGuard guard(options);
    const core::GuardScope guard_scope(guard);
    const core::TraceSession trace_session(local);
    const double before = session.audit->spent();
    const double value = run_query(session, req);
    const double after = session.audit->spent();
    response = protocol::ok_response(req, value, after - before, after,
                                     session.audit->remaining());
  } catch (...) {
    const protocol::WireError err = protocol::classify_current_exception();
    // Guard aborts and contained faults are degradation, not admission:
    // the ops log witnesses them as "serve.abort".
    core::obs::log_event(core::obs::LogLevel::kWarn, "serve.abort",
                         req.analyst, 0.0, err.code);
    response = protocol::error_response(req.id, req.analyst, err);
  }
  frames_executed_.fetch_add(1, std::memory_order_relaxed);
  rows_processed_.fetch_add(records_.size(), std::memory_order_relaxed);
  {
    // All scopes are closed by now (success or unwind), so the request's
    // spans — including refused/aborted releases — join the server-wide
    // trace whole; the oldest tree folds into the summary.
    const std::lock_guard<std::mutex> trace_lock(trace_mutex_);
    recent_.push_back(std::move(local));
    if (recent_.size() > kRecentTraces) {
      folded_eps_ += recent_.front().total_eps_charged();
      ++folded_requests_;
      recent_.pop_front();
    }
  }
  return response;
}

double QueryServer::run_query(Session& session,
                              const protocol::Request& req) {
  const core::Queryable<net::Packet>& view = *session.view;
  if (req.query == "count") {
    return view.noisy_count(req.eps);
  }
  if (req.query == "count-tcp") {
    return view.where([](const net::Packet& p) {
                  return p.protocol == net::kProtoTcp;
                })
        .noisy_count(req.eps);
  }
  if (req.query == "count-udp") {
    return view.where([](const net::Packet& p) {
                  return p.protocol == net::kProtoUdp;
                })
        .noisy_count(req.eps);
  }
  if (req.query == "count-port") {
    const auto port = static_cast<std::uint16_t>(req.port);
    return view.where([port](const net::Packet& p) {
                  return p.src_port == port || p.dst_port == port;
                })
        .noisy_count(req.eps);
  }
  throw core::InvalidQueryError("unknown query name");
}

void QueryServer::write_response(const std::string& analyst,
                                 const ResponseSink& sink,
                                 const std::string& line) const {
  try {
    core::failpoint::hit("serve.session.write", analyst);
    if (sink) sink(line);
  } catch (...) {
    // A broken session transport drops the response.  The charge stands
    // (charged epsilon is never refunded) and the journal's fault event
    // witnessed the failure; the server keeps serving.
  }
}

void QueryServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] {
    return queued_total_ == 0 && running_total_ == 0;
  });
}

std::size_t QueryServer::sessions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

double QueryServer::dataset_spent() const { return root_->spent(); }

double QueryServer::analyst_spent(const std::string& analyst) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(analyst);
  return it != sessions_.end() ? it->second->audit->spent() : 0.0;
}

std::string QueryServer::ledger_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  core::JsonWriter w;
  w.begin_object();
  w.key("spent").value(root_->spent());
  w.key("entries").begin_array();
  for (const auto& [analyst, session] : sessions_) {  // sorted by name
    for (const auto& entry : session->audit->canonical_entries()) {
      w.begin_object();
      w.key("eps").value(entry.eps);
      w.key("label").value(entry.label);
      w.key("node_id").value(entry.node_id);
      w.end_object();
    }
  }
  w.end_array();
  std::map<std::string, double> totals;
  for (const auto& [analyst, session] : sessions_) {
    for (const auto& [label, eps] : session->audit->totals_by_label()) {
      totals[label] += eps;
    }
  }
  w.key("totals_by_label").begin_object();
  for (const auto& [label, eps] : totals) w.key(label).value(eps);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string QueryServer::trace_json() const {
  const std::lock_guard<std::mutex> lock(trace_mutex_);
  core::QueryTrace out = trace_;
  if (folded_requests_ != 0) {
    core::QueryTrace folded;
    {
      const core::TraceSession session(folded);
      core::TraceScope scope("serve.folded");
      scope.set_detail(std::to_string(folded_requests_));
      scope.set_eps(0.0, folded_eps_);
    }
    out.merge_from(std::move(folded));
  }
  for (core::QueryTrace request : recent_) out.merge_from(std::move(request));
  return out.to_json();
}

void QueryServer::flush_journal() const {
  if (cfg_.journal_path.empty()) return;
  core::obs::EventJournal::global().commit();
}

std::string QueryServer::ops_snapshot_json() const {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value("dpnet.ops.v1");
  const auto now = std::chrono::steady_clock::now();
  w.key("ts_us").value(
      std::chrono::duration_cast<std::chrono::microseconds>(
          now.time_since_epoch())
          .count());
  const double uptime_ms =
      std::chrono::duration<double, std::milli>(now - started_).count();
  w.key("uptime_ms").value(uptime_ms);
  const std::uint64_t frames =
      frames_executed_.load(std::memory_order_relaxed);
  const std::uint64_t rows = rows_processed_.load(std::memory_order_relaxed);
  w.key("frames").value(frames);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    w.key("sessions").value(static_cast<std::uint64_t>(sessions_.size()));
    w.key("queue_depth").value(static_cast<std::uint64_t>(queued_total_));
    w.key("in_flight").value(static_cast<std::uint64_t>(running_total_));
    w.key("dataset").begin_object();
    w.key("spent").value(root_->spent());
    w.key("remaining").value(root_->remaining());
    w.end_object();
    const std::map<std::string, core::obs::BurnTracker::Stats> burn =
        core::obs::BurnTracker::global().all();
    w.key("analysts").begin_array();
    for (const auto& [analyst, session] : sessions_) {  // sorted by name
      w.begin_object();
      w.key("analyst").value(analyst);
      w.key("spent").value(session->audit->spent());
      const double remaining = session->audit->remaining();
      w.key("remaining").value(std::isfinite(remaining) ? remaining : -1.0);
      const auto it = burn.find(analyst);
      const core::obs::BurnTracker::Stats stats =
          it != burn.end() ? it->second : core::obs::BurnTracker::Stats{};
      w.key("burn_rate").value(stats.rate);
      w.key("eta_s").value(stats.has_eta ? stats.eta_s : -1.0);
      w.key("queued").value(
          static_cast<std::uint64_t>(session->queue.size()));
      w.end_object();
    }
    w.end_array();
  }
  const core::Histogram::Snapshot lat =
      core::builtin_metrics::query_wall_ms().snapshot();
  w.key("latency").begin_object();
  w.key("count").value(lat.count);
  w.key("p50").value(lat.p50);
  w.key("p95").value(lat.p95);
  w.key("p99").value(lat.p99);
  w.end_object();
  w.key("peak_rss_kb").value(core::obs::peak_rss_kb());
  w.key("records_per_sec")
      .value(core::obs::records_per_sec(static_cast<std::int64_t>(rows),
                                        uptime_ms));
  w.end_object();
  return w.str();
}

void QueryServer::write_ops_snapshot(bool force) {
  if (!snapshot_) return;
  try {
    snapshot_->maybe_write([this] { return ops_snapshot_json(); }, force);
  } catch (...) {
    // Live state only: a failed publish never fails a request.
    core::obs::log_event(core::obs::LogLevel::kWarn, "serve.error", {}, 0.0,
                         "ops-snapshot");
  }
}

}  // namespace dpnet::serve
