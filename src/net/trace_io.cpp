#include "net/trace_io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "core/failpoint.hpp"
#include "core/metrics.hpp"
#include "core/obs/journal.hpp"

namespace dpnet::net {

namespace {

// Fixed part of a serialized packet (everything but the payload bytes).
constexpr std::uint32_t kPacketFixedBytes = 36;
constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024 * 1024;
constexpr std::uint32_t kMaxBodyBytes = kPacketFixedBytes + kMaxPayloadBytes;
// Container header: u32 magic, u16 version, u64 record count.
constexpr std::size_t kHeaderBytes = 14;

template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Reads a trivially-copyable field from unaligned bytes.
template <typename T>
T load(const char* bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

/// IEEE CRC-32 (reflected polynomial 0xEDB88320), slice-by-8: eight
/// 256-entry tables fold eight bytes per step on little-endian hosts.
std::uint32_t crc32(const char* data, std::size_t n) {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, p += 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
            tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
            tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
            tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    }
  }
  for (; n > 0; --n, ++p) {
    crc = tables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::string_view bytes) {
  return crc32(bytes.data(), bytes.size());
}

void put_packet(std::ostream& out, const Packet& p) {
  put(out, p.timestamp);
  put(out, p.src_ip.value);
  put(out, p.dst_ip.value);
  put(out, p.src_port);
  put(out, p.dst_port);
  put(out, p.protocol);
  put(out, p.flags.to_byte());
  put(out, p.seq);
  put(out, p.ack_no);
  put(out, p.length);
  if (p.payload.size() > kMaxPayloadBytes) {
    throw TraceIoError("payload too large to serialize");
  }
  put(out, static_cast<std::uint32_t>(p.payload.size()));
  out.write(p.payload.data(),
            static_cast<std::streamsize>(p.payload.size()));
}

/// Offset of the u32 payload length within a serialized packet.
constexpr std::size_t kPayloadLenOffset = kPacketFixedBytes - 4;

/// Parses a serialized packet from `len` bytes (at least the fixed part).
/// Returns false, leaving `p` untouched, when the announced payload is
/// implausible or does not fit; trailing bytes past the payload are
/// ignored, as the stream-based parser always did.
bool parse_packet(const char* b, std::size_t len, Packet& p) {
  const auto payload_len = load<std::uint32_t>(b + kPayloadLenOffset);
  if (payload_len > kMaxPayloadBytes ||
      payload_len > len - kPacketFixedBytes) {
    return false;
  }
  p.timestamp = load<double>(b);
  p.src_ip = Ipv4(load<std::uint32_t>(b + 8));
  p.dst_ip = Ipv4(load<std::uint32_t>(b + 12));
  p.src_port = load<std::uint16_t>(b + 16);
  p.dst_port = load<std::uint16_t>(b + 18);
  p.protocol = load<std::uint8_t>(b + 20);
  p.flags = TcpFlags::from_byte(load<std::uint8_t>(b + 21));
  p.seq = load<std::uint32_t>(b + 22);
  p.ack_no = load<std::uint32_t>(b + 26);
  p.length = load<std::uint16_t>(b + 30);
  p.payload.assign(b + kPacketFixedBytes, payload_len);
  return true;
}

}  // namespace

void write_trace(std::ostream& out, std::span<const Packet> trace) {
  TraceWriter writer(out);
  for (const Packet& p : trace) writer.write(p);
  writer.finish();
}

std::vector<Packet> read_trace(std::istream& in,
                               const TraceReadOptions& options) {
  TraceReader reader(in, options);
  std::vector<Packet> out;
  // A corrupted count must not drive a giant up-front allocation; the
  // vector grows naturally past this if the records are really there.
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(reader.total(), 1u << 20)));
  // Parse straight into the vector's next element: no per-record copy.
  while (reader.remaining() > 0) {
    if (!reader.next(out.emplace_back())) {
      out.pop_back();  // a quarantined tail: nothing more to read
      break;
    }
  }
  return out;
}

void write_trace_file(const std::string& path,
                      std::span<const Packet> trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw TraceIoError("cannot open for writing: " + path);
  write_trace(out, trace);
  if (!out) throw TraceIoError("write failed: " + path);
}

std::vector<Packet> read_trace_file(const std::string& path,
                                    const TraceReadOptions& options) {
  for (int attempt = 0;; ++attempt) {
    try {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw TransientIoError("cannot open for reading: " + path);
      return read_trace(in, options);
    } catch (const TransientIoError&) {
      if (attempt >= options.max_retries) throw;
      // Deterministic doubling backoff, no jitter: retry k waits
      // retry_backoff * 2^k, so failure handling replays identically.
      std::this_thread::sleep_for(options.retry_backoff * (1LL << attempt));
    }
  }
}

TraceWriter::TraceWriter(std::ostream& out) : out_(out) {
  put(out_, kTraceMagic);
  put(out_, kTraceVersion);
  count_pos_ = out_.tellp();
  put(out_, std::uint64_t{0});  // patched by finish()
}

TraceWriter::~TraceWriter() {
  if (!finished_) {
    try {
      finish();
    } catch (...) {
      // Destructors must not throw; an explicit finish() reports errors.
    }
  }
}

void TraceWriter::write(const Packet& p) {
  if (finished_) throw TraceIoError("write after finish");
  std::ostringstream body_out;
  put_packet(body_out, p);
  const std::string body = std::move(body_out).str();
  put(out_, kRecordMarker);
  put(out_, static_cast<std::uint32_t>(body.size()));
  out_.write(body.data(), static_cast<std::streamsize>(body.size()));
  put(out_, crc32(body));
  ++count_;
}

void TraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  const std::streampos end = out_.tellp();
  out_.seekp(count_pos_);
  put(out_, count_);
  out_.seekp(end);
  if (!out_) throw TraceIoError("trace writer stream failure");
}

TraceReader::TraceReader(std::istream& in, TraceReadOptions options)
    : in_(in), options_(options), buf_(kReadChunk) {
  core::failpoint::hit("net.trace_io.read");
  const auto header = [this](std::size_t n) {
    require(n, "truncated trace header", TraceFormatError::kHeader);
    return buf_.data() + pos_;
  };
  if (load<std::uint32_t>(header(4)) != kTraceMagic) {
    throw TraceFormatError("bad trace magic (not a DPNT container)",
                           TraceFormatError::kHeader);
  }
  version_ = load<std::uint16_t>(header(6) + 4);
  if (version_ != kTraceVersion && version_ != kTraceVersionLegacy) {
    throw TraceFormatError(
        "unsupported trace version " + std::to_string(version_),
        TraceFormatError::kHeader);
  }
  total_ = load<std::uint64_t>(header(kHeaderBytes) + 6);
  pos_ += kHeaderBytes;
}

bool TraceReader::fill(std::size_t n) {
  if (end_ - pos_ >= n) return true;
  // Keep the unread bytes, moved to the front; a frame larger than the
  // buffer grows it, at most doubling per read, so a forged length costs
  // no more memory than the bytes actually there.
  std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
  end_ -= pos_;
  pos_ = 0;
  while (end_ < n && !exhausted_) {
    if (end_ == buf_.size()) {
      buf_.resize(std::min(n, 2 * buf_.size()));
    }
    in_.read(buf_.data() + end_,
             static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    if (!in_) {
      exhausted_ = true;
      failed_ = in_.bad();
    }
  }
  return end_ >= n;
}

void TraceReader::require(std::size_t n, const char* what,
                          std::uint64_t index) {
  if (fill(n)) return;
  if (failed_) throw TransientIoError("trace stream I/O failure");
  throw TraceFormatError(what, index);
}

/// Parses one v2 frame at pos_, consuming it only if it is intact.  Every
/// failure mode is a bounded, indexed TraceFormatError (or
/// TransientIoError for stream-level faults) — no input byte pattern may
/// crash the reader or read out of bounds.
void TraceReader::take_frame(Packet& p, std::uint64_t index) {
  constexpr std::size_t kHead = sizeof(std::uint16_t) + sizeof(std::uint32_t);
  require(sizeof(std::uint16_t), "truncated record frame", index);
  if (load<std::uint16_t>(buf_.data() + pos_) != kRecordMarker) {
    throw TraceFormatError("bad record marker", index);
  }
  require(kHead, "truncated record frame", index);
  const auto body_len =
      load<std::uint32_t>(buf_.data() + pos_ + sizeof(std::uint16_t));
  if (body_len < kPacketFixedBytes || body_len > kMaxBodyBytes) {
    throw TraceFormatError("implausible record length", index);
  }
  require(kHead + body_len, "truncated record body", index);
  require(kHead + body_len + sizeof(std::uint32_t),
          "truncated record checksum", index);
  const char* body = buf_.data() + pos_ + kHead;
  if (load<std::uint32_t>(body + body_len) != crc32(body, body_len)) {
    throw TraceFormatError("record checksum mismatch", index);
  }
  if (!parse_packet(body, body_len, p)) {
    // Checksum passed but the body doesn't parse as a packet: the record
    // was written malformed.  Index only — never the bytes themselves.
    throw TraceFormatError("malformed record body", index);
  }
  pos_ += kHead + body_len + sizeof(std::uint32_t);
}

void TraceReader::take_legacy(Packet& p, std::uint64_t index) {
  constexpr const char* kWhat = "truncated or malformed record";
  require(kPacketFixedBytes, kWhat, index);
  const auto payload_len =
      load<std::uint32_t>(buf_.data() + pos_ + kPayloadLenOffset);
  if (payload_len > kMaxPayloadBytes) throw TraceFormatError(kWhat, index);
  require(kPacketFixedBytes + payload_len, kWhat, index);
  static_cast<void>(parse_packet(buf_.data() + pos_,
                                 kPacketFixedBytes + payload_len, p));
  pos_ += kPacketFixedBytes + payload_len;
}

bool TraceReader::next(Packet& p) {
  while (consumed_ < total_) {
    const std::uint64_t index = consumed_;
    try {
      if (version_ == kTraceVersionLegacy) {
        take_legacy(p, index);
      } else {
        take_frame(p, index);
      }
      ++consumed_;
      core::builtin_metrics::bytes_processed().increment(kPacketFixedBytes +
                                                         p.payload.size());
      return true;
    } catch (const TraceFormatError&) {
      // Legacy containers carry no frame markers, so there is nothing to
      // resync on — degraded mode is v2-only.
      if (!options_.quarantine || version_ == kTraceVersionLegacy) throw;
      ++consumed_;
      ++quarantined_;
      core::builtin_metrics::records_quarantined().increment();
      core::obs::emit_quarantine("net.trace_io");
      if (quarantined_ > options_.max_quarantined) {
        throw TraceFormatError("quarantine limit exceeded; container too "
                               "corrupt to degrade gracefully",
                               index);
      }
      if (!resync()) {
        // Truncated tail: nothing left to scan.  Terminal — remaining()
        // drops to zero so callers see a clean (if short) end of trace.
        total_ = consumed_;
        return false;
      }
    }
  }
  return false;
}

bool TraceReader::resync() {
  // Re-scan from one byte past the bad frame's start (still at pos_: a
  // failed frame consumes nothing) for the next marker, in native byte
  // order, matching put<std::uint16_t>.  The bytes are already buffered
  // or come from the stream as the scan needs them — no seek.  A payload
  // byte pair can alias the marker; the checksum then rejects the false
  // frame and we land back here, one quarantine count further along.
  constexpr char lo = static_cast<char>(kRecordMarker & 0xFF);
  constexpr char hi = static_cast<char>((kRecordMarker >> 8) & 0xFF);
  if (!fill(1)) {
    if (failed_) throw TransientIoError("trace stream I/O failure");
    return false;
  }
  std::size_t i = pos_ + 1;
  for (;;) {
    for (; i + 1 < end_; ++i) {
      if (buf_[i] == lo && buf_[i + 1] == hi) {
        pos_ = i;
        return true;
      }
    }
    // Keep the last unmatched byte: it may be the low half of a marker.
    pos_ = std::min(i, end_);
    const std::size_t kept = end_ - pos_;
    if (!fill(kept + 1)) {
      if (failed_) throw TransientIoError("trace stream I/O failure");
      pos_ = end_;
      return false;
    }
    i = pos_;
  }
}

}  // namespace dpnet::net
