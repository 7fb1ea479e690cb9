// Fault-injection registry for chaos testing the trusted runtime.
//
// A failpoint is a named hook compiled into an engine code path
// (plan-node materialization, executor task dispatch, the release/charge
// path, trace ingestion).  Disarmed — the default — a hit is a single
// relaxed atomic load, the same zero-cost-when-off discipline as the
// trace kill switch (core/trace.hpp).  Armed, the registry dispatches to
// a per-name callback, which may throw, cancel a guard, sleep, or flip
// stream state; each fired callback counts on the faults.injected
// metric.
//
// Arming is test-side plumbing:
//
//   failpoint::ScopedFailpoint fp("plan.materialize", [](auto detail) {
//     if (detail == "group_by") throw std::runtime_error("injected");
//   });
//
// or environment-driven for CLI/ops experiments:
//
//   DPNET_FAILPOINTS="plan.materialize=throw;net.trace_io.read=throw"
//
// where the only builtin env action is `throw` (throws a
// std::runtime_error naming the failpoint — which the containment layer
// then sanitizes, exactly like a misbehaving analyst UDF).
//
// Failpoint names compiled into the engine:
//
//   plan.materialize       before a plan node's compute (detail: op name)
//   exec.worker_task       before an executor task runs
//   core.release.charge    before an aggregation charges the budget
//                          (detail: mechanism)
//   net.trace_io.read      when a trace read opens a container; rearms
//                          per retry attempt, driving the bounded-retry
//                          path in net::read_trace_file
//   serve.accept           when the query server opens an analyst
//                          session (detail: analyst name)
//   serve.dispatch         before a dispatched request executes, after
//                          dequeue (detail: analyst name)
//   serve.session.write    before a response frame is handed to the
//                          session transport (detail: analyst name)
//   obs.journal.flush      in EventJournal::commit, before an appended
//                          batch is written (a batch failing there is
//                          not on disk afterwards); also between temp
//                          durability and rename when the log's first
//                          commit or flush_to_file publishes a whole
//                          document (detail: path)
//   obs.snapshot.publish   in OpsSnapshotWriter::maybe_write, after the
//                          temp file is durable and before it is
//                          renamed over the snapshot path (detail: path)
//
// (Whole-document publishes fire inside obs::publish_atomically,
// core/obs/publish.hpp, which the writers share.)
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <string_view>

namespace dpnet::core::failpoint {

using Action = std::function<void(std::string_view detail)>;

namespace detail {

// Set iff at least one failpoint is armed; the only cost when disarmed.
inline std::atomic<bool> any_armed{false};

void dispatch(std::string_view name, std::string_view detail);

}  // namespace detail

/// Arms `name` with `action`; replaces any previous action for the name.
void arm(const std::string& name, Action action);

/// Disarms `name` (no-op if not armed).
void disarm(const std::string& name);

/// Disarms everything, including env-armed failpoints.
void disarm_all();

/// Number of times any armed failpoint has fired since process start.
[[nodiscard]] std::uint64_t fired_count();

/// Engine-side hook.  Disarmed cost: one relaxed atomic load.
inline void hit(std::string_view name, std::string_view detail = {}) {
  if (detail::any_armed.load(std::memory_order_relaxed)) {
    detail::dispatch(name, detail);
  }
}

/// RAII arm/disarm for tests.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, Action action) : name_(std::move(name)) {
    arm(name_, std::move(action));
  }
  ~ScopedFailpoint() { disarm(name_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

}  // namespace dpnet::core::failpoint
