// Structured ops log: leveled, rate-limited JSONL for the mediated
// server's operational events.
//
// `dpnet_cli serve` used to narrate its lifecycle with ad-hoc stderr
// prints; an operator tailing a long-lived server needs machine-readable
// lines instead — one sanitized JSON object per admission-ladder
// decision (admit / queue / backpressure / shed / abort), per lifecycle
// transition (started / recovered / stopped), and per fault.  OpsLog is
// that sink: schema "dpnet.log.v1", a fixed approved field set (seq,
// ts_us, level, kind, label, eps, detail, suppressed — dpnet-lint rule
// R6), accounting metadata only, never record contents.
//
// Rate limiting is per *kind*: when one event kind fires more than the
// per-second limit, excess lines are dropped and counted, and the next
// emitted line of that kind carries a "suppressed" field — a flooded
// server degrades its log by summarizing, never by blocking or growing.
//
// Overhead: with no sink attached a line costs one mutex acquisition and
// returns before any clock read or formatting; with a sink, one
// mutex-protected formatted write per *line* (decisions and lifecycle —
// never per record).  bench_micro_engine A/Bs sink attached versus
// detached under the same <2% bound as the tracing and journal layers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace dpnet::core::obs {

enum class LogLevel : std::uint8_t {
  kDebug = 0,  // per-request admission outcomes
  kInfo = 1,   // lifecycle: started / recovered / stopped / snapshots
  kWarn = 2,   // degradation: backpressure, shed, aborts, dump failures
  kError = 3,  // faults that end a request or the server
};

[[nodiscard]] constexpr const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "unknown";
}

/// The process-wide ops log.  Lines go nowhere until a sink is attached
/// (use_stderr() or open_file()); attaching is the server's job, so
/// engine-embedded callers stay silent by default.
class OpsLog {
 public:
  static constexpr std::uint64_t kDefaultRateLimit = 256;  // lines/s/kind

  static OpsLog& global();

  OpsLog() = default;
  ~OpsLog();

  OpsLog(const OpsLog&) = delete;
  OpsLog& operator=(const OpsLog&) = delete;

  /// Sends lines to stderr (no schema header — stderr interleaves with
  /// other diagnostics; the header belongs to owned files).
  void use_stderr();

  /// Sends lines to `path` (truncating), starting with the schema header
  /// line {"schema":"dpnet.log.v1"}.  Throws DpError on open failure.
  void open_file(const std::string& path);

  /// Detaches the sink (flushes and closes an owned file).  Subsequent
  /// lines are dropped until a sink is attached again.
  void close();

  void set_min_level(LogLevel level);
  [[nodiscard]] LogLevel min_level() const;

  /// Per-kind lines-per-second bound; 0 disables rate limiting.
  void set_rate_limit(std::uint64_t per_sec);

  /// Emits one line (subject to level filter and per-kind rate limit).
  /// `label` is the analyst label, `eps` the kind's epsilon magnitude
  /// (0 when not applicable), `detail` a sanitized reason/name string.
  void log(LogLevel level, std::string_view kind, std::string_view label,
           double eps, std::string_view detail);

  /// Lines written to the sink / dropped by the rate limiter, lifetime.
  [[nodiscard]] std::uint64_t emitted() const;
  [[nodiscard]] std::uint64_t suppressed() const;

 private:
  struct KindWindow {
    std::int64_t second = -1;  // wall second this window counts against
    std::uint64_t count = 0;
    std::uint64_t suppressed = 0;  // dropped since the last emitted line
  };

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;  // owned; nullptr when not writing to a file
  bool to_stderr_ = false;
  LogLevel min_level_ = LogLevel::kInfo;
  std::uint64_t rate_limit_ = kDefaultRateLimit;
  std::uint64_t seq_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t suppressed_ = 0;
  std::map<std::string, KindWindow, std::less<>> windows_;
};

/// Emission hook onto the global log.  Callers sit on per-decision /
/// per-lifecycle paths, never per record.
inline void log_event(LogLevel level, std::string_view kind,
                      std::string_view label = {}, double eps = 0.0,
                      std::string_view detail = {}) {
  OpsLog::global().log(level, kind, label, eps, detail);
}

}  // namespace dpnet::core::obs
