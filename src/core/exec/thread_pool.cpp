#include "core/exec/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "core/trace.hpp"

namespace dpnet::core::exec {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  try {
    // Spawn loop is bounded by the thread count, not by row count; there
    // is no query guard installed yet at pool construction time.
    // dpnet-lint: suppress(R11)
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] {
        // Stamp the worker lane once for the thread's lifetime: every
        // span recorded on this worker carries the index, which is what
        // renders parallel fan-outs as per-worker lanes in the Chrome
        // trace export.
        set_trace_worker(static_cast<int>(i));
        worker_loop();
      });
    }
  } catch (...) {
    // A thread that cannot start: join the ones that did, so the caller
    // gets the error rather than std::terminate from a joinable thread.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void ThreadPool::worker_loop() {
  // Queue-drain loop: each iteration blocks on the condition variable and
  // runs one task.  Checkpointing belongs to the task wrappers built in
  // Executor::run, which see the query guard; the pool itself is
  // query-agnostic infrastructure.
  // dpnet-lint: suppress(R11)
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace dpnet::core::exec
