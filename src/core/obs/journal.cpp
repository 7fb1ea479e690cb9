#include "core/obs/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <iterator>

#include "core/errors.hpp"
#include "core/failpoint.hpp"
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

/// The header opens a document and counts the records that follow it.
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

/// The closing line of an appended batch counts the batch's records, so
/// a verifier can tell a complete batch from a torn one.
std::string batch_close_body(std::uint64_t events) {
  JsonWriter w;
  w.begin_object();
  w.key("events").value(events);
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

/// A header line followed by `events`, hash-chained from the offset
/// basis; `chain` ends on the last line's link.
std::string document(const std::vector<Event>& events,
                     std::uint64_t dropped, bool canonical,
                     std::uint64_t& chain) {
  std::string out;
  chain = kFnvOffset;
  append_chained(out, header_body(events.size(), dropped), chain);
  for (std::size_t i = 0; i < events.size(); ++i) {
    append_chained(out, record_body(events[i], canonical, i), chain);
  }
  return out;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ::ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
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

EventJournal::~EventJournal() { close_log(); }

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
  if (logging_) {
    // The log is the record: the event waits for the next commit and
    // never enters the ring, so a journaled server's memory does not
    // grow with its event count.
    queued_.push_back(std::move(e));
    return;
  }
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

void EventJournal::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  dropped_at_clear_ = dropped_;
}

std::string EventJournal::to_jsonl(bool canonical) const {
  const std::vector<Event> snapshot =
      canonical ? canonical_events() : events();
  std::uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped = dropped_ - dropped_at_clear_;
  }
  std::uint64_t chain = 0;
  return document(snapshot, dropped, canonical, chain);
}

void EventJournal::flush_to_file(const std::string& path,
                                 bool canonical) const {
  publish_atomically(path, to_jsonl(canonical), "obs.journal.flush");
}

void EventJournal::open_log(const std::string& path) {
  close_log();
  const std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  const std::lock_guard<std::mutex> lock(mutex_);
  log_path_ = path;
  committed_ = appended_;
  logging_ = true;
}

void EventJournal::close_log() {
  const std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  const std::lock_guard<std::mutex> lock(mutex_);
  logging_ = false;
  queued_.clear();
  if (log_fd_ >= 0) ::close(log_fd_);
  log_fd_ = -1;
  log_failed_ = false;
}

void EventJournal::commit() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!logging_) return;
  const std::uint64_t wanted = appended_;
  lock.unlock();

  const std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  // Group commit: whoever held commit_mutex_ before us may have written
  // our events already.  Until the first publish there is no file, so
  // that commit always runs (a shutdown barrier creates the file).
  if (log_fd_ >= 0 && committed_ >= wanted) return;
  std::vector<Event> batch;
  lock.lock();
  if (!logging_) return;  // closed meanwhile
  batch.swap(queued_);
  const std::uint64_t covered = appended_;
  lock.unlock();
  if (log_failed_) {
    throw DpError("journal " + log_path_ +
                  " could not be cut back after a failed append");
  }

  try {
    std::uint64_t chain = log_chain_;
    if (log_fd_ < 0) {
      // First commit of this log: one arrival-order document, published
      // crash-atomically over whatever the path held.  It holds every
      // event since open_log, so it never reports drops.
      const std::string doc =
          document(batch, /*dropped=*/0, /*canonical=*/false, chain);
      publish_atomically(log_path_, doc, "obs.journal.flush");
      const int fd =
          ::open(log_path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
      if (fd < 0) throw DpError("cannot open " + log_path_);
      log_fd_ = fd;
      log_bytes_ = doc.size();
    } else if (!batch.empty()) {
      std::string text;
      for (const Event& e : batch) {
        append_chained(text, record_body(e, /*canonical=*/false, 0), chain);
      }
      append_chained(text, batch_close_body(batch.size()), chain);
      failpoint::hit("obs.journal.flush", log_path_);
      if (!write_all(log_fd_, text) || ::fdatasync(log_fd_) != 0) {
        // Cut the file back to its durable length so a retry appends
        // right after the last complete batch.  If even that fails,
        // every later commit fails too — nothing more is acknowledged —
        // and recovery ignores the torn tail.
        log_failed_ =
            ::ftruncate(log_fd_, static_cast<::off_t>(log_bytes_)) != 0;
        throw DpError("cannot append to " + log_path_);
      }
      log_bytes_ += text.size();
    }
    log_chain_ = chain;
    committed_ = covered;
  } catch (...) {
    // The batch is not on disk: queue it again, ahead of anything
    // appended meanwhile, for the next commit.
    if (!log_failed_) {
      lock.lock();
      batch.insert(batch.end(), std::make_move_iterator(queued_.begin()),
                   std::make_move_iterator(queued_.end()));
      queued_ = std::move(batch);
    }
    throw;
  }
}

namespace journal_detail {

void emit(EventKind kind, std::string label, std::uint64_t node_id,
          double eps, std::string detail) {
  EventJournal::global().append(kind, std::move(label), node_id, eps,
                                std::move(detail));
}

}  // namespace journal_detail

}  // namespace dpnet::core::obs
