// Fixed-size worker pool backing core::exec::Executor.
//
// This is the only place in the codebase allowed to create threads
// (dpnet-lint rule R7): every parallel code path goes through the
// executor so that trace merging, noise forking, and budget charging
// stay deterministic.  The pool is deliberately minimal — a mutex +
// condition-variable task queue drained by N workers — because dpnet's
// unit of parallel work is a whole partition branch, not a record.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dpnet::core::exec {

class ThreadPool {
 public:
  /// Starts `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains nothing: outstanding tasks run to completion, then workers
  /// exit.  Callers who need completion signalling use their own latch
  /// (see Executor::run).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for the next free worker.
  void submit(std::function<void()> task);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// The machine's hardware concurrency (at least 1).
  [[nodiscard]] static std::size_t hardware_threads();

 private:
  void worker_loop();
  /// Tells the workers to exit once the queue is drained, and joins them.
  void stop_and_join();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dpnet::core::exec
