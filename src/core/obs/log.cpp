#include "core/obs/log.hpp"

#include <chrono>

#include "core/errors.hpp"
#include "core/json.hpp"
#include "core/trace.hpp"

namespace dpnet::core::obs {

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - trace_detail::trace_epoch())
      .count();
}

}  // namespace

OpsLog& OpsLog::global() {
  static OpsLog log;
  return log;
}

OpsLog::~OpsLog() { close(); }

void OpsLog::use_stderr() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  to_stderr_ = true;
}

void OpsLog::open_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw DpError("cannot open ops log at " + path);
  }
  JsonWriter header;
  header.begin_object();
  header.key("schema").value("dpnet.log.v1");
  header.end_object();
  const std::string line = header.str();
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  std::fflush(f);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  to_stderr_ = false;
}

void OpsLog::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
  to_stderr_ = false;
}

void OpsLog::set_min_level(LogLevel level) {
  const std::lock_guard<std::mutex> lock(mutex_);
  min_level_ = level;
}

LogLevel OpsLog::min_level() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return min_level_;
}

void OpsLog::set_rate_limit(std::uint64_t per_sec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  rate_limit_ = per_sec;
}

void OpsLog::log(LogLevel level, std::string_view kind,
                 std::string_view label, double eps,
                 std::string_view detail) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr && !to_stderr_) return;
  if (level < min_level_) return;
  const std::int64_t ts_us = now_us();
  std::uint64_t report_suppressed = 0;
  if (rate_limit_ > 0) {
    const std::int64_t second = ts_us / 1000000;
    auto it = windows_.find(kind);
    if (it == windows_.end()) {
      it = windows_.emplace(std::string(kind), KindWindow{}).first;
    }
    KindWindow& w = it->second;
    if (w.second != second) {
      w.second = second;
      w.count = 0;
    }
    if (w.count >= rate_limit_) {
      ++w.suppressed;
      ++suppressed_;
      return;
    }
    ++w.count;
    report_suppressed = w.suppressed;
    w.suppressed = 0;
  } else if (auto it = windows_.find(kind); it != windows_.end()) {
    // Limiting was turned off with a summary still pending: the next
    // emitted line of the kind carries it rather than losing the count.
    report_suppressed = it->second.suppressed;
    it->second.suppressed = 0;
  }
  JsonWriter w;
  w.begin_object();
  w.key("seq").value(seq_++);
  w.key("ts_us").value(ts_us);
  w.key("level").value(log_level_name(level));
  w.key("kind").value(kind);
  w.key("label").value(label);
  w.key("eps").value(eps);
  w.key("detail").value(detail);
  if (report_suppressed > 0) w.key("suppressed").value(report_suppressed);
  w.end_object();
  const std::string line = w.str();
  std::FILE* sink = file_ != nullptr ? file_ : stderr;
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fputc('\n', sink);
  std::fflush(sink);
  ++emitted_;
}

std::uint64_t OpsLog::emitted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

std::uint64_t OpsLog::suppressed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return suppressed_;
}

}  // namespace dpnet::core::obs
