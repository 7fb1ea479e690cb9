// Crash-atomic file publish: the one whole-document durability idiom
// behind the event journal's flushes (and its durable log's first,
// compacting commit) and the ops snapshot.
//
// A reader (or a restart after kill -9 or power loss) must only ever see
// the previous complete document or the new one, never a torn hybrid.
// So: write a temp file in the same directory, make its bytes durable,
// rename() it over the target (atomic on POSIX), then fsync the
// directory so the rename itself is durable.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "core/errors.hpp"
#include "core/failpoint.hpp"

namespace dpnet::core::obs {

/// Atomically replaces `path` with `doc`.  Throws DpError on I/O
/// failure (the temp file is removed and the target left untouched).
/// The `failpoint_name` failpoint fires after the temp file is durable
/// and before the rename: a throw injected there models a crash between
/// the two, which must leave the previous document in place.
inline void publish_atomically(const std::string& path,
                               const std::string& doc,
                               std::string_view failpoint_name) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    throw DpError("cannot write " + tmp);
  }
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool synced = flushed && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != doc.size() || !synced || !closed) {
    std::remove(tmp.c_str());
    throw DpError("short write flushing " + tmp);
  }
  failpoint::hit(failpoint_name, path);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw DpError("cannot replace " + path);
  }
  // Best effort: some filesystems refuse fsync on a directory fd.  That
  // only weakens durability of the very latest publish, never
  // atomicity, so failures are ignored.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace dpnet::core::obs
