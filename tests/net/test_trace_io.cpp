#include "net/trace_io.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/failpoint.hpp"
#include "core/queryable.hpp"

namespace dpnet::net {
namespace {

Packet sample_packet(int i) {
  Packet p;
  p.timestamp = 0.5 * i;
  p.src_ip = Ipv4(10, 0, 0, static_cast<std::uint8_t>(i + 1));
  p.dst_ip = Ipv4(198, 18, 0, 1);
  p.src_port = static_cast<std::uint16_t>(1000 + i);
  p.dst_port = 80;
  p.protocol = kProtoTcp;
  p.flags = TcpFlags{.syn = i % 2 == 0, .ack = true};
  p.seq = static_cast<std::uint32_t>(100 * i);
  p.ack_no = static_cast<std::uint32_t>(7 * i);
  p.length = static_cast<std::uint16_t>(40 + i);
  if (i % 3 == 0) p.payload = "payload-" + std::to_string(i);
  return p;
}

TEST(TraceIo, RoundTripsPackets) {
  std::vector<Packet> trace;
  for (int i = 0; i < 50; ++i) trace.push_back(sample_packet(i));
  std::stringstream buffer;
  write_trace(buffer, trace);
  const auto back = read_trace(buffer);
  EXPECT_EQ(back, trace);
}

TEST(TraceIo, RoundTripsEmptyTrace) {
  std::stringstream buffer;
  write_trace(buffer, {});
  EXPECT_TRUE(read_trace(buffer).empty());
}

TEST(TraceIo, RoundTripsBinaryPayloads) {
  Packet p = sample_packet(1);
  p.payload = std::string("\x00\xff\x7f\x01\x00", 5);
  std::stringstream buffer;
  write_trace(buffer, std::vector<Packet>{p});
  const auto back = read_trace(buffer);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].payload.size(), 5u);
  EXPECT_EQ(back[0], p);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "not a trace at all";
  EXPECT_THROW(read_trace(buffer), TraceIoError);
}

TEST(TraceIo, RejectsTruncatedStream) {
  std::vector<Packet> trace = {sample_packet(0), sample_packet(1)};
  std::stringstream buffer;
  write_trace(buffer, trace);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() - 10));
  EXPECT_THROW(read_trace(cut), TraceIoError);
}

TEST(TraceIo, StreamingWriterAndReaderAgree) {
  std::stringstream buffer;
  {
    TraceWriter writer(buffer);
    for (int i = 0; i < 10; ++i) writer.write(sample_packet(i));
    writer.finish();
  }
  TraceReader reader(buffer);
  EXPECT_EQ(reader.total(), 10u);
  Packet p;
  int count = 0;
  while (reader.next(p)) {
    EXPECT_EQ(p, sample_packet(count));
    ++count;
  }
  EXPECT_EQ(count, 10);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(TraceIo, WriteAfterFinishThrows) {
  std::stringstream buffer;
  TraceWriter writer(buffer);
  writer.write(sample_packet(0));
  writer.finish();
  EXPECT_THROW(writer.write(sample_packet(1)), TraceIoError);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dpnt_roundtrip.trace";
  std::vector<Packet> trace;
  for (int i = 0; i < 20; ++i) trace.push_back(sample_packet(i));
  write_trace_file(path, trace);
  EXPECT_EQ(read_trace_file(path), trace);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/dir/trace.bin"), TraceIoError);
}

// ---------------------------------------------------------------------
// Robustness: v2 framing, corruption detection, degraded mode, retry.
// ---------------------------------------------------------------------

template <typename T>
void put_raw(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Hand-writes a version-1 (unframed) container, byte-for-byte the
/// pre-v2 writer's output, so the legacy read path stays covered.
void write_legacy_trace(std::ostream& out, const std::vector<Packet>& trace) {
  put_raw(out, kTraceMagic);
  put_raw(out, kTraceVersionLegacy);
  put_raw(out, static_cast<std::uint64_t>(trace.size()));
  for (const Packet& p : trace) {
    put_raw(out, p.timestamp);
    put_raw(out, p.src_ip.value);
    put_raw(out, p.dst_ip.value);
    put_raw(out, p.src_port);
    put_raw(out, p.dst_port);
    put_raw(out, p.protocol);
    put_raw(out, p.flags.to_byte());
    put_raw(out, p.seq);
    put_raw(out, p.ack_no);
    put_raw(out, p.length);
    put_raw(out, static_cast<std::uint32_t>(p.payload.size()));
    out.write(p.payload.data(),
              static_cast<std::streamsize>(p.payload.size()));
  }
}

/// Packets with distinctive payloads so tests can corrupt a specific
/// record by locating its payload bytes in the serialized buffer.
Packet tagged_packet(int i) {
  Packet p = sample_packet(i);
  p.payload = "pkt-" + std::to_string(i);
  return p;
}

std::string serialized(const std::vector<Packet>& trace) {
  std::stringstream buffer;
  write_trace(buffer, trace);
  return buffer.str();
}

TEST(TraceIo, WritesVersionTwo) {
  std::stringstream buffer;
  write_trace(buffer, std::vector<Packet>{sample_packet(0)});
  TraceReader reader(buffer);
  EXPECT_EQ(reader.version(), kTraceVersion);
  EXPECT_EQ(reader.total(), 1u);
}

TEST(TraceIo, ReadsLegacyV1Containers) {
  std::vector<Packet> trace;
  for (int i = 0; i < 8; ++i) trace.push_back(sample_packet(i));
  std::stringstream buffer;
  write_legacy_trace(buffer, trace);
  EXPECT_EQ(read_trace(buffer), trace);
}

TEST(TraceIo, LegacyTruncationIsFormatError) {
  std::stringstream buffer;
  write_legacy_trace(buffer, {sample_packet(0), sample_packet(1)});
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() - 5));
  EXPECT_THROW(read_trace(cut), TraceFormatError);
}

TEST(TraceIo, BitFlipIsDetectedByChecksum) {
  std::string bytes = serialized({tagged_packet(0), tagged_packet(1)});
  const std::size_t pos = bytes.find("pkt-0");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x20;
  std::stringstream corrupted(bytes);
  try {
    read_trace(corrupted);
    FAIL() << "corruption not detected";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.record_index(), 0u);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(TraceIo, FormatErrorCarriesRecordIndex) {
  std::string bytes =
      serialized({tagged_packet(0), tagged_packet(1), tagged_packet(2)});
  const std::size_t pos = bytes.find("pkt-1");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x01;
  std::stringstream corrupted(bytes);
  try {
    read_trace(corrupted);
    FAIL() << "corruption not detected";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.record_index(), 1u);
  }
}

TEST(TraceIo, QuarantineSkipsCorruptRecordAndResyncs) {
  std::vector<Packet> trace;
  for (int i = 0; i < 5; ++i) trace.push_back(tagged_packet(i));
  std::string bytes = serialized(trace);
  const std::size_t pos = bytes.find("pkt-2");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x40;

  std::stringstream corrupted(bytes);
  TraceReader reader(corrupted, TraceReadOptions{.quarantine = true});
  std::vector<Packet> got;
  Packet p;
  while (reader.next(p)) got.push_back(p);
  const std::vector<Packet> expected = {trace[0], trace[1], trace[3],
                                        trace[4]};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(reader.quarantined(), 1u);
}

TEST(TraceIo, QuarantineToleratesTruncatedTail) {
  std::vector<Packet> trace = {tagged_packet(0), tagged_packet(1),
                               tagged_packet(2)};
  const std::string full = serialized(trace);
  std::stringstream cut(full.substr(0, full.size() - 6));
  TraceReader reader(cut, TraceReadOptions{.quarantine = true});
  std::vector<Packet> got;
  Packet p;
  while (reader.next(p)) got.push_back(p);
  const std::vector<Packet> expected = {trace[0], trace[1]};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(reader.quarantined(), 1u);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(TraceIo, QuarantineLimitStillBoundsCorruption) {
  std::string bytes = serialized({tagged_packet(0), tagged_packet(1)});
  const std::size_t pos = bytes.find("pkt-0");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x40;
  std::stringstream corrupted(bytes);
  TraceReader reader(
      corrupted, TraceReadOptions{.quarantine = true, .max_quarantined = 0});
  Packet p;
  EXPECT_THROW(
      {
        while (reader.next(p)) {
        }
      },
      TraceFormatError);
}

TEST(TraceIo, TransientFaultsRetryDeterministically) {
  const std::string path = ::testing::TempDir() + "/dpnt_retry.trace";
  write_trace_file(path, std::vector<Packet>{sample_packet(0)});

  int failures_left = 2;
  core::failpoint::ScopedFailpoint fp(
      "net.trace_io.read", [&failures_left](std::string_view) {
        if (failures_left > 0) {
          --failures_left;
          throw TransientIoError("injected transient fault");
        }
      });
  TraceReadOptions options;
  options.max_retries = 2;
  options.retry_backoff = std::chrono::milliseconds(0);
  EXPECT_EQ(read_trace_file(path, options).size(), 1u);
  EXPECT_EQ(failures_left, 0);
}

TEST(TraceIo, TransientRetriesAreBounded) {
  const std::string path = ::testing::TempDir() + "/dpnt_retry_fail.trace";
  write_trace_file(path, std::vector<Packet>{sample_packet(0)});

  int attempts = 0;
  core::failpoint::ScopedFailpoint fp("net.trace_io.read",
                                      [&attempts](std::string_view) {
                                        ++attempts;
                                        throw TransientIoError("injected");
                                      });
  TraceReadOptions options;
  options.max_retries = 3;
  options.retry_backoff = std::chrono::milliseconds(0);
  EXPECT_THROW(read_trace_file(path, options), TransientIoError);
  EXPECT_EQ(attempts, 4);  // first try + 3 retries, then give up
}

// ---------------------------------------------------------------------
// The buffered reader: records straddling refills, resync across them,
// and no seek per record.
// ---------------------------------------------------------------------

Packet sized_packet(int i, std::size_t payload) {
  Packet p = sample_packet(i);
  p.payload.assign(payload, static_cast<char>('a' + i % 26));
  return p;
}

TEST(TraceIo, RecordsStraddlingBufferRefillsRoundTrip) {
  // The reader refills a 64 KiB buffer; shifting the first record by 0..40
  // bytes moves every refill edge across every part of a frame (marker,
  // length, body, checksum).  One payload is larger than the buffer.
  const std::size_t sizes[] = {0, 15, 16, 0, 16, 15};
  for (std::size_t shift = 0; shift <= 40; ++shift) {
    std::vector<Packet> trace = {sized_packet(0, shift)};
    for (int i = 1; i < 3000; ++i) {
      trace.push_back(sized_packet(i, sizes[i % 6]));
      if (i == 1500) trace.push_back(sized_packet(i, 100'000));
    }
    std::stringstream buffer;
    write_trace(buffer, trace);
    ASSERT_GT(buffer.str().size(), 3u * 64 * 1024);
    EXPECT_EQ(read_trace(buffer), trace) << "shift " << shift;
  }
}

TEST(TraceIo, QuarantineResyncFindsAMarkerBeyondTheBuffer) {
  // Record 1's length field is forged implausible, so its frame fails
  // after six bytes and the resync scans its 100 KB payload — through
  // more than one buffer refill — to record 2's marker.
  std::vector<Packet> trace = {sized_packet(0, 16),
                               sized_packet(1, 100'000),
                               sized_packet(2, 15), sized_packet(3, 0)};
  for (Packet& p : trace) {
    for (char& c : p.payload) c = 'x';  // no marker bytes in payloads
  }
  std::string bytes = serialized(trace);
  const std::size_t payload = bytes.find(std::string(1000, 'x'), 100);
  ASSERT_NE(payload, std::string::npos);
  // The length field's top byte sits just before record 1's body (the
  // body's fixed 36 bytes precede the payload).
  const std::size_t length_top = payload - 36 - 1;
  bytes[length_top] = static_cast<char>(0xFF);

  std::stringstream strict(bytes);
  EXPECT_THROW(read_trace(strict), TraceFormatError);
  std::stringstream corrupted(bytes);
  TraceReader reader(corrupted, TraceReadOptions{.quarantine = true});
  std::vector<Packet> got;
  Packet p;
  while (reader.next(p)) got.push_back(p);
  const std::vector<Packet> expected = {trace[0], trace[2], trace[3]};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(reader.quarantined(), 1u);
}

/// A string buffer that counts seeks.
class SeekCountingBuf : public std::stringbuf {
 public:
  explicit SeekCountingBuf(const std::string& bytes)
      : std::stringbuf(bytes, std::ios::in) {}
  [[nodiscard]] int seeks() const { return seeks_; }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    ++seeks_;
    return std::stringbuf::seekoff(off, dir, which);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    ++seeks_;
    return std::stringbuf::seekpos(pos, which);
  }

 private:
  int seeks_ = 0;
};

TEST(TraceIo, StrictReadSeeksAConstantNumberOfTimes) {
  const auto seeks_reading = [](int records) {
    std::vector<Packet> trace;
    for (int i = 0; i < records; ++i) trace.push_back(sample_packet(i));
    SeekCountingBuf buf(serialized(trace));
    std::istream in(&buf);
    EXPECT_EQ(read_trace(in).size(), static_cast<std::size_t>(records));
    return buf.seeks();
  };
  const int few = seeks_reading(10);
  EXPECT_EQ(seeks_reading(1000), few);  // not one per record
}

// A DPNT file as a streamed source: every demand re-reads the file
// through a TraceReader and no packet is stored, yet the histogram it
// releases is byte-identical to the one over the trace read into memory
// (same noise seed, so the same node ids and cell noise).
TEST(TraceIo, StreamedReaderReleasesTheInMemoryHistogram) {
  std::vector<Packet> trace;
  for (int i = 0; i < 3000; ++i) trace.push_back(sample_packet(i % 200));
  std::stringstream file;
  write_trace(file, trace);
  const std::string bytes = file.str();

  std::size_t reads = 0;
  const auto streamed = core::Queryable<Packet>::streamed(
      [&bytes, &reads](core::plan::SourceSink<Packet>& sink) {
        ++reads;
        std::istringstream in(bytes);
        TraceReader reader(in);
        Packet p;
        while (reader.next(p)) sink(p);
      },
      std::make_shared<core::RootBudget>(1.0),
      std::make_shared<core::NoiseSource>(41));
  const core::Queryable<Packet> stored(
      trace, std::make_shared<core::RootBudget>(1.0),
      std::make_shared<core::NoiseSource>(41));

  const std::vector<int> lengths = {40, 41, 100, 239, 500};
  const auto length_of = [](const Packet& p) {
    return static_cast<int>(p.length);
  };
  const auto from_file =
      streamed.where([](const Packet& p) { return p.flags.syn; })
          .noisy_counts(lengths, length_of, 0.5);
  const auto from_memory =
      stored.where([](const Packet& p) { return p.flags.syn; })
          .noisy_counts(lengths, length_of, 0.5);
  EXPECT_EQ(from_file, from_memory);
  EXPECT_EQ(reads, 1u);
  EXPECT_FALSE(streamed.plan_node().holds_rows());
  // A second demand reads the file again.
  std::ignore = streamed.noisy_counts(lengths, length_of, 0.25);
  EXPECT_EQ(reads, 2u);
}

}  // namespace
}  // namespace dpnet::net
