// Ops snapshot writer: the live, atomically-replaced state file behind
// `dpnet_cli top`.
//
// A long-lived `dpnet_cli serve` periodically serializes its operational
// state (queue depths, in-flight requests, per-analyst budgets and burn
// rates, latency percentiles, peak RSS, throughput — schema
// "dpnet.ops.v1") and publishes it at a fixed path.  OpsSnapshotWriter
// owns the two properties that make that safe and cheap:
//
//  * Atomicity: every publish goes through publish_atomically
//    (core/obs/publish.hpp), the journal flush's temp-file + fsync +
//    rename — a reader (or a kill -9) can never see a torn snapshot,
//    only the previous complete one or the new one.
//  * Cadence: maybe_write() builds and writes at most once per interval;
//    between intervals it is one clock read, so callers can invoke it on
//    every request without budgeting for I/O.
//
// A server without a snapshot path constructs no writer.
// bench_micro_engine A/Bs maybe_write() called versus not under the same
// <2% bound as the other ops layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

namespace dpnet::core::obs {

class OpsSnapshotWriter {
 public:
  /// Publishes to `path` at most once per `interval` (the serve default
  /// is one second).
  OpsSnapshotWriter(std::string path, std::chrono::milliseconds interval);

  /// Builds the document with `build` and atomically replaces the
  /// snapshot file — but only when the interval has elapsed since the
  /// last publish (or `force` is set, for startup/shutdown edges).
  /// Returns true when a write happened.  Throws DpError on I/O
  /// failure; `build` is only invoked when a write will happen.
  bool maybe_write(const std::function<std::string()>& build,
                   bool force = false);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t writes() const;

 private:
  std::string path_;
  std::chrono::milliseconds interval_;
  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point last_write_{};
  bool wrote_once_ = false;
  std::uint64_t writes_ = 0;
};

}  // namespace dpnet::core::obs
