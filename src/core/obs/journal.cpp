#include "core/obs/journal.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/obs/publish.hpp"
#include "core/trace.hpp"

namespace dpnet::core::obs {

namespace {

/// 16-digit lowercase hex of a chain link (fixed width keeps the flush
/// byte-stable and the grep-ability of `audit tail` output).
std::string chain_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// Serializes one record WITHOUT its closing brace or chain field; the
/// caller hashes these bytes and appends `,"chain":"..."}`.  The chain
/// therefore covers every serialized byte of the record body.
std::string record_body(const Event& e, bool canonical,
                        std::uint64_t canonical_seq) {
  JsonWriter w;
  w.begin_object();
  w.key("seq").value(canonical ? canonical_seq : e.seq);
  w.key("kind").value(event_kind_name(e.kind));
  w.key("label").value(e.label);
  w.key("node_id").value(e.node_id);
  w.key("eps").value(e.eps);
  w.key("detail").value(e.detail);
  if (!canonical) w.key("ts_us").value(e.ts_us);
  w.end_object();
  std::string body = w.str();
  body.pop_back();  // drop '}' — the chain field is appended by the caller
  return body;
}

std::string header_body(std::uint64_t events, std::uint64_t dropped) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dpnet.events.v1");
  w.key("events").value(events);
  w.key("dropped").value(dropped);
  w.end_object();
  std::string body = w.str();
  body.pop_back();
  return body;
}

void append_chained(std::string& out, const std::string& body,
                    std::uint64_t& chain) {
  chain = fnv1a(body, chain);
  out += body;
  out += ",\"chain\":\"";
  out += chain_hex(chain);
  out += "\"}\n";
}

}  // namespace

EventJournal& EventJournal::global() {
  static EventJournal journal;
  return journal;
}

EventJournal::EventJournal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void EventJournal::append(EventKind kind, std::string label,
                          std::uint64_t node_id, double eps,
                          std::string detail) {
  Event e;
  e.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() -
                trace_detail::trace_epoch())
                .count();
  e.kind = kind;
  e.label = std::move(label);
  e.node_id = node_id;
  e.eps = eps;
  e.detail = std::move(detail);
  const std::lock_guard<std::mutex> lock(mutex_);
  e.seq = appended_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[head_] = std::move(e);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    // Silent forgetting must be visible to ops: every overwrite also
    // counts on the metrics surface (lock-free, fine under the ring
    // mutex).
    builtin_metrics::journal_events_dropped().increment();
  }
}

std::vector<Event> EventJournal::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<Event> EventJournal::canonical_events() const {
  std::vector<Event> sorted = events();
  // Stable on the causal key: one node's (or task's) events were emitted
  // sequentially by whichever thread ran it, so per-key arrival order is
  // schedule-independent; the sort removes the cross-thread interleave.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) {
                     return a.node_id < b.node_id;
                   });
  return sorted;
}

std::uint64_t EventJournal::appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::uint64_t EventJournal::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::size_t EventJournal::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::size_t EventJournal::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void EventJournal::reserve(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (capacity <= capacity_) return;
  // Linearize a wrapped ring before the bound moves: the oldest event
  // must stay at index head_ == 0 once inserts start landing past the
  // old capacity.
  if (head_ != 0) {
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
  }
  capacity_ = capacity;
}

void EventJournal::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
}

std::string EventJournal::to_jsonl(bool canonical) const {
  const std::vector<Event> snapshot =
      canonical ? canonical_events() : events();
  std::uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped = dropped_;
  }
  std::string out;
  std::uint64_t chain = kFnvOffset;
  append_chained(out, header_body(snapshot.size(), dropped), chain);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    append_chained(out, record_body(snapshot[i], canonical, i), chain);
  }
  return out;
}

void EventJournal::flush_to_file(const std::string& path,
                                 bool canonical) const {
  // Crash-atomic replacement.  The journal file is the budget state of
  // record for a restarted server: a flush interrupted at any instant
  // (kill -9, power loss) must leave either the previous complete
  // journal or the new one on disk — a truncated file would make
  // recovery refuse startup, and the only operator remedy (deleting the
  // journal) would refund every spent epsilon.
  publish_atomically(path, to_jsonl(canonical), "obs.journal.flush");
}

namespace journal_detail {

void emit(EventKind kind, std::string label, std::uint64_t node_id,
          double eps, std::string detail) {
  EventJournal::global().append(kind, std::move(label), node_id, eps,
                                std::move(detail));
}

}  // namespace journal_detail

}  // namespace dpnet::core::obs
