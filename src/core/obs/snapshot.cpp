#include "core/obs/snapshot.hpp"

#include "core/obs/publish.hpp"

namespace dpnet::core::obs {

OpsSnapshotWriter::OpsSnapshotWriter(std::string path,
                                     std::chrono::milliseconds interval)
    : path_(std::move(path)), interval_(interval) {}

bool OpsSnapshotWriter::maybe_write(
    const std::function<std::string()>& build, bool force) {
  const auto now = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!force && wrote_once_ && now - last_write_ < interval_) return false;
    // Claim the slot before the (unlocked) build + publish: concurrent
    // drain threads racing past the interval edge would otherwise write
    // the same tick twice.
    wrote_once_ = true;
    last_write_ = now;
    ++writes_;
  }
  publish_atomically(path_, build(), "obs.snapshot.publish");
  return true;
}

std::uint64_t OpsSnapshotWriter::writes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return writes_;
}

}  // namespace dpnet::core::obs
