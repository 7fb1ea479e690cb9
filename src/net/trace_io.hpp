// Binary packet-trace serialization.
//
// A small versioned container format ("DPNT") so generated traces can be
// written once and shared between benches, plus streaming read/write for
// traces larger than memory.
//
// Version 2 frames every record as
//
//   [u16 marker][u32 body_len][body bytes][u32 crc32(body)]
//
// so a reader can (a) detect bit-flips via the checksum, (b) detect
// truncation mid-record, and (c) in the opt-in degraded mode, *resync*
// past a corrupt record by scanning forward for the next marker instead
// of giving up on the whole file.  Version 1 containers (no framing) are
// still readable, strict-mode only.
//
// Failure taxonomy (docs/robustness.md):
//   TraceFormatError  — the bytes are wrong (bad magic, bad checksum,
//                       truncation, implausible lengths).  Retrying will
//                       not help; carries the offending record index.
//   TransientIoError  — the I/O layer failed (stream badbit, open
//                       failure).  read_trace_file retries these with
//                       deterministic bounded backoff.
// Both derive from TraceIoError, so existing catch sites see no change.
// Error text names offsets, indices, and sizes only — never record
// contents (the lint R8 sanitization boundary applies here too).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace dpnet::net {

inline constexpr std::uint32_t kTraceMagic = 0x44504e54;  // "DPNT"
inline constexpr std::uint16_t kTraceVersion = 2;
inline constexpr std::uint16_t kTraceVersionLegacy = 1;
/// Per-record frame marker (v2).  Chosen to be asymmetric so a reversed
/// or shifted stream cannot alias it.
inline constexpr std::uint16_t kRecordMarker = 0xA55A;

/// Raised on malformed trace containers.
class TraceIoError : public std::runtime_error {
 public:
  explicit TraceIoError(const std::string& what) : std::runtime_error(what) {}
};

/// The container's bytes are malformed (corruption, truncation, or not a
/// DPNT file at all).  Deterministic: retrying the read cannot succeed.
class TraceFormatError : public TraceIoError {
 public:
  /// record_index for errors in the container header (before any record).
  static constexpr std::uint64_t kHeader =
      std::numeric_limits<std::uint64_t>::max();

  TraceFormatError(const std::string& what, std::uint64_t record_index)
      : TraceIoError(record_index == kHeader
                         ? what
                         : what + " (record " + std::to_string(record_index) +
                               ")"),
        record_index_(record_index) {}

  [[nodiscard]] std::uint64_t record_index() const { return record_index_; }

 private:
  std::uint64_t record_index_;
};

/// The underlying stream failed (disk error, racing writer, injected
/// fault).  Retryable; read_trace_file does so when asked.
class TransientIoError : public TraceIoError {
 public:
  explicit TransientIoError(const std::string& what) : TraceIoError(what) {}
};

/// Read-side robustness knobs.  Defaults preserve the historical strict
/// behavior: any malformed byte aborts the read with a TraceFormatError.
struct TraceReadOptions {
  /// Degraded mode: skip corrupt v2 records (resyncing on the frame
  /// marker) instead of failing, counting each skip in `quarantined()`
  /// and the records.quarantined metric.  Ignored for v1 containers,
  /// which carry no markers to resync on.
  bool quarantine = false;
  /// Abort with TraceFormatError anyway once this many records have been
  /// quarantined — a bound on how degraded a "degraded" read may get.
  std::size_t max_quarantined = 1024;
  /// read_trace_file retries TransientIoError this many times (on top of
  /// the first attempt) before giving up.
  int max_retries = 0;
  /// Backoff before retry k (0-based) is retry_backoff << k: a fixed,
  /// jitter-free doubling schedule so failure handling is as
  /// deterministic as the rest of the engine.
  std::chrono::milliseconds retry_backoff{1};
};

/// Writes `trace` to `out` in DPNT v2 format.
void write_trace(std::ostream& out, std::span<const Packet> trace);

/// Reads a DPNT container; throws TraceFormatError on corruption (unless
/// quarantining) and TransientIoError on stream failure.
std::vector<Packet> read_trace(std::istream& in,
                               const TraceReadOptions& options = {});

/// Convenience file wrappers.
void write_trace_file(const std::string& path, std::span<const Packet> trace);
std::vector<Packet> read_trace_file(const std::string& path,
                                    const TraceReadOptions& options = {});

/// Incremental writer for traces produced in chunks.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(const Packet& p);
  /// Patches the header with the final record count.  Called by the
  /// destructor if not invoked explicitly; explicit calls surface errors.
  void finish();

 private:
  std::ostream& out_;
  std::uint64_t count_ = 0;
  std::streampos count_pos_;
  bool finished_ = false;
};

/// Incremental reader for v1 and v2 containers.  Reads the stream in
/// chunks into one reused buffer (grown only for a record larger than
/// it) and parses records from there, so a read costs no seek and no
/// per-record stream object; it may read past the last record.
class TraceReader {
 public:
  explicit TraceReader(std::istream& in, TraceReadOptions options = {});

  /// Reads the next packet into `p`; returns false at end of trace.  In
  /// quarantine mode a corrupt record is skipped (counted, never
  /// surfaced) and the next intact one is returned instead.
  bool next(Packet& p);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t remaining() const { return total_ - consumed_; }
  /// Records skipped so far in quarantine mode.
  [[nodiscard]] std::uint64_t quarantined() const { return quarantined_; }
  [[nodiscard]] std::uint16_t version() const { return version_; }

 private:
  /// Bytes the buffer is refilled with per stream read.
  static constexpr std::size_t kReadChunk = 64 * 1024;

  /// Makes `n` unread bytes available at pos_; false if the stream ends
  /// (or fails) first.
  [[nodiscard]] bool fill(std::size_t n);
  /// fill(n), or throws: TransientIoError if the stream failed, else
  /// TraceFormatError(what, index).
  void require(std::size_t n, const char* what, std::uint64_t index);
  void take_frame(Packet& p, std::uint64_t index);
  void take_legacy(Packet& p, std::uint64_t index);
  [[nodiscard]] bool resync();

  std::istream& in_;
  TraceReadOptions options_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // next unread byte in buf_
  std::size_t end_ = 0;  // one past the last buffered byte
  bool exhausted_ = false;  // the stream has no more bytes
  bool failed_ = false;     // ...because it failed (badbit)
  std::uint16_t version_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t consumed_ = 0;  // intact + quarantined
  std::uint64_t quarantined_ = 0;
};

}  // namespace dpnet::net
