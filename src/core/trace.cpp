#include "core/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/json.hpp"
#include "core/obs/resource.hpp"

namespace dpnet::core {

namespace {

void sum_eps(const TraceSpan& span, double& total) {
  total += span.eps_charged;
  for (const TraceSpan& child : span.children) sum_eps(child, total);
}

void group_eps(const TraceSpan& span, std::map<std::string, double>& by_op) {
  if (span.eps_charged > 0.0) by_op[span.op] += span.eps_charged;
  for (const TraceSpan& child : span.children) group_eps(child, by_op);
}

void write_span(JsonWriter& w, const TraceSpan& span) {
  w.begin_object();
  w.key("op").value(span.op);
  if (!span.detail.empty()) w.key("detail").value(span.detail);
  w.key("stability").value(span.stability);
  w.key("input_rows").value(static_cast<std::int64_t>(span.input_rows));
  w.key("output_rows").value(static_cast<std::int64_t>(span.output_rows));
  w.key("eps_requested").value(span.eps_requested);
  w.key("eps_charged").value(span.eps_charged);
  if (!span.mechanism.empty()) w.key("mechanism").value(span.mechanism);
  w.key("wall_ms").value(span.wall_ms);
  // Derived throughput (resource telemetry): rows out over span wall
  // time, omitted when the span recorded no rows or ran too fast to
  // divide by.
  if (const double rps = obs::records_per_sec(span.output_rows, span.wall_ms);
      rps > 0.0) {
    w.key("records_per_sec").value(rps);
  }
  w.key("ts_us").value(span.ts_us);
  w.key("dur_us").value(span.dur_us);
  w.key("worker").value(static_cast<std::int64_t>(span.worker));
  w.key("children").begin_array();
  for (const TraceSpan& child : span.children) write_span(w, child);
  w.end_array();
  w.end_object();
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

/// Lane id: the calling thread renders as tid 0, worker w as tid w + 1.
int chrome_tid(const TraceSpan& span) { return span.worker + 1; }

void collect_lanes(const TraceSpan& span, std::vector<int>& lanes) {
  const int tid = chrome_tid(span);
  if (std::find(lanes.begin(), lanes.end(), tid) == lanes.end()) {
    lanes.push_back(tid);
  }
  for (const TraceSpan& child : span.children) collect_lanes(child, lanes);
}

void write_chrome_event(JsonWriter& w, const TraceSpan& span) {
  w.begin_object();
  w.key("name").value(span.op.empty() ? "span" : span.op);
  w.key("cat").value("dpnet");
  w.key("ph").value("X");  // complete event: begin + duration in one record
  // Spans recorded before the timeline stamps existed (or synthesized in
  // tests) may carry -1; clamp so the export always loads.
  w.key("ts").value(span.ts_us < 0 ? std::int64_t{0} : span.ts_us);
  w.key("dur").value(span.dur_us < 0 ? std::int64_t{0} : span.dur_us);
  w.key("pid").value(std::int64_t{1});
  w.key("tid").value(static_cast<std::int64_t>(chrome_tid(span)));
  w.key("args").begin_object();
  if (!span.detail.empty()) w.key("detail").value(span.detail);
  w.key("stability").value(span.stability);
  w.key("input_rows").value(static_cast<std::int64_t>(span.input_rows));
  w.key("output_rows").value(static_cast<std::int64_t>(span.output_rows));
  w.key("eps_requested").value(span.eps_requested);
  w.key("eps_charged").value(span.eps_charged);
  if (!span.mechanism.empty()) w.key("mechanism").value(span.mechanism);
  w.end_object();
  w.end_object();
  for (const TraceSpan& child : span.children) write_chrome_event(w, child);
}

void pretty_span(const TraceSpan& span, int depth, std::string& out) {
  char buf[256];
  std::string meta;
  if (span.input_rows >= 0) {
    std::snprintf(buf, sizeof buf, " rows=%lld->%lld",
                  static_cast<long long>(span.input_rows),
                  static_cast<long long>(span.output_rows));
    meta += buf;
  }
  if (span.stability > 0.0) {
    std::snprintf(buf, sizeof buf, " stability=%g", span.stability);
    meta += buf;
  }
  if (span.eps_charged > 0.0) {
    std::snprintf(buf, sizeof buf, " eps=%g charged=%g", span.eps_requested,
                  span.eps_charged);
    meta += buf;
  }
  if (!span.mechanism.empty()) meta += " mechanism=" + span.mechanism;
  std::snprintf(buf, sizeof buf, " (%.3f ms)", span.wall_ms);
  meta += buf;
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += span.op;
  if (!span.detail.empty()) out += "[" + span.detail + "]";
  out += meta;
  out += '\n';
  for (const TraceSpan& child : span.children) {
    pretty_span(child, depth + 1, out);
  }
}

}  // namespace

void QueryTrace::clear() {
  if (!stack_.empty()) return;  // never clear under an open scope
  roots_.clear();
}

void QueryTrace::merge_from(QueryTrace&& worker) {
  if (!worker.stack_.empty()) return;  // refuse to merge an open trace
  std::vector<TraceSpan>& siblings =
      stack_.empty() ? roots_ : stack_.back()->children;
  for (TraceSpan& span : worker.roots_) {
    siblings.push_back(std::move(span));
  }
  worker.roots_.clear();
}

double QueryTrace::total_eps_charged() const {
  double total = 0.0;
  for (const TraceSpan& root : roots_) sum_eps(root, total);
  return total;
}

std::map<std::string, double> QueryTrace::eps_by_op() const {
  std::map<std::string, double> by_op;
  for (const TraceSpan& root : roots_) group_eps(root, by_op);
  return by_op;
}

std::string QueryTrace::to_chrome_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  // One thread_name metadata event per lane so Perfetto labels the
  // swimlanes; lane 0 is the analyst/calling thread.
  std::vector<int> lanes;
  for (const TraceSpan& root : roots_) collect_lanes(root, lanes);
  std::sort(lanes.begin(), lanes.end());
  for (const int tid : lanes) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(tid));
    w.key("args").begin_object();
    w.key("name").value(tid == 0 ? std::string("analyst")
                                 : "worker " + std::to_string(tid - 1));
    w.end_object();
    w.end_object();
  }
  for (const TraceSpan& root : roots_) write_chrome_event(w, root);
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.end_object();
  return w.str();
}

std::string QueryTrace::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("spans").begin_array();
  for (const TraceSpan& root : roots_) write_span(w, root);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string QueryTrace::pretty() const {
  std::string out;
  for (const TraceSpan& root : roots_) pretty_span(root, 0, out);
  return out;
}

std::chrono::steady_clock::time_point trace_detail::trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

TraceScope::TraceScope(std::string op) : trace_(trace_detail::tls_sink) {
  if (trace_ == nullptr) return;
  std::vector<TraceSpan>& siblings = trace_->stack_.empty()
                                         ? trace_->roots_
                                         : trace_->stack_.back()->children;
  siblings.push_back(TraceSpan{});
  span_ = &siblings.back();
  span_->op = std::move(op);
  span_->worker = trace_detail::tls_worker;
  trace_->stack_.push_back(span_);
  // Resolve the epoch before taking the start stamp: the epoch latches on
  // first use, so sampling the clock first would date the process's very
  // first span a hair *before* the epoch and give it a negative ts_us.
  const auto epoch = trace_detail::trace_epoch();
  start_ = std::chrono::steady_clock::now();
  span_->ts_us =
      std::chrono::duration_cast<std::chrono::microseconds>(start_ - epoch)
          .count();
}

TraceScope::~TraceScope() {
  if (span_ == nullptr) return;
  // Unwinding (abort, refusal, analyst exception) lands here too, so even
  // a span whose operator threw closes with real begin/duration stamps —
  // the Chrome export never contains unterminated events.
  const auto end = std::chrono::steady_clock::now();
  span_->wall_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  span_->dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
          .count();
  trace_->stack_.pop_back();
}

}  // namespace dpnet::core
