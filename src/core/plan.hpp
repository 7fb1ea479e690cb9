// Logical plan IR: the operator DAG behind every Queryable.
//
// A Queryable used to interleave operator logic, memoization, budget
// charging, and trace emission in one closure chain.  The plan layer
// separates the *what* from the *when*: each transformation builds a
// plan::Node carrying the operator name, its stability factor, a stable
// node id, and a deferred body over its inputs.  Executors (sequential
// aggregation calls or core::exec workers) then evaluate nodes on demand;
// evaluation is thread-safe, so the same node demanded from two workers
// records its span and charges its rows once.
//
// Fused narrow operators (docs/architecture.md, "Fused narrow
// operators"): where/select/select_many nodes are *narrow* — their body
// streams output rows into a per-row sink instead of returning a buffer.
// The operator consuming a narrow node (an aggregation, a wide operator,
// partition) drives the whole chain in one pass with Node::scan, so no
// intermediate row is copied.  Rows are stored only at sources, at wide
// operators (group_by, distinct, join, concat, the set ops), for rows()
// callers that need them addressable, and for a narrow node demanded a
// second time — so a shared narrow node runs its chain at most twice.
//
// Node ids are the determinism anchor (see docs/architecture.md):
//
//   root id   = mix64(kRootSalt, noise-stream base)
//   child id  = mix64(parent id, per-parent child ordinal)
//
// Ids therefore depend only on the shape of the plan and the order in
// which the analyst's code derives children from each parent — never on
// which thread happens to run first.  NoiseSource forks and audit-ledger
// entries key off these ids, which is what makes parallel execution
// byte-identical to sequential.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/guard.hpp"
#include "core/hash.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"

namespace dpnet::core::plan {

using NodeId = std::uint64_t;

inline constexpr NodeId kRootSalt = 0x706c616e726f6f74ULL;     // "planroot"
inline constexpr NodeId kReleaseSalt = 0x72656c65617365ULL;    // "release"

/// Seed of the NoiseSource backing release number `ordinal` of node `id`
/// under root noise stream `stream`.  Mixing (stream base, node id,
/// per-node release ordinal) makes every aggregation's noise independent
/// of both sibling nodes and thread schedule.
[[nodiscard]] inline std::uint64_t release_seed(std::uint64_t stream,
                                                NodeId id,
                                                std::uint64_t ordinal) {
  return mix64(mix64(mix64(kReleaseSalt, stream), id), ordinal);
}

/// Id of child number `ordinal` of node `parent`: the node a parent's
/// `ordinal`-th derivation gets (NodeBase::next_child_id()).
[[nodiscard]] inline NodeId child_id(NodeId parent, std::uint64_t ordinal) {
  return mix64(parent, ordinal);
}

/// Type-erased plan node: identity, operator metadata, and DAG edges.
/// The typed rows live in the Node<T> subclass.
class NodeBase {
 public:
  NodeBase(NodeId id, std::string op, double op_stability,
           std::vector<std::weak_ptr<const NodeBase>> inputs = {})
      : id_(id),
        op_(std::move(op)),
        op_stability_(op_stability),
        inputs_(std::move(inputs)) {}

  virtual ~NodeBase() = default;

  NodeBase(const NodeBase&) = delete;
  NodeBase& operator=(const NodeBase&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& op() const { return op_; }
  [[nodiscard]] double op_stability() const { return op_stability_; }

  /// True once the node has been evaluated (its span recorded and its
  /// rows charged), whether or not it kept its rows; sources are
  /// evaluated from construction.
  [[nodiscard]] bool materialized() const {
    return materialized_.load(std::memory_order_acquire);
  }

  /// True when the node holds a row buffer: sources, evaluated wide
  /// operators, and narrow operators demanded twice or through rows().
  [[nodiscard]] virtual bool holds_rows() const = 0;

  /// Live upstream nodes.  Edges are weak so a parent's rows can be freed
  /// once every consumer holds what it needs (a node drops its body, and
  /// with it the captured parents, once it stores its own rows).
  [[nodiscard]] std::vector<std::shared_ptr<const NodeBase>> inputs() const {
    std::vector<std::shared_ptr<const NodeBase>> live;
    live.reserve(inputs_.size());
    for (const auto& weak : inputs_) {
      if (auto strong = weak.lock()) live.push_back(std::move(strong));
    }
    return live;
  }

  /// Id for the next child derived from this node.  Deterministic as long
  /// as each node's children are derived in a deterministic order (which
  /// analyst code — including per-partition executor tasks, each of which
  /// owns its branch — guarantees by construction).
  [[nodiscard]] NodeId next_child_id() const {
    return child_id(id_,
                    child_ordinal_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Seed for the NoiseSource fork backing this node's next release
  /// (release_seed() at the node's next release ordinal).
  [[nodiscard]] std::uint64_t next_release_seed(std::uint64_t stream) const {
    return release_seed(
        stream, id_, release_ordinal_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Indented rendering of the reachable DAG (operator, short id, and a
  /// '*' marker on evaluated nodes).  Diagnostic only.
  [[nodiscard]] std::string describe() const {
    std::string out;
    describe_into(out, 0);
    return out;
  }

 protected:
  void mark_materialized() {
    materialized_.store(true, std::memory_order_release);
  }

 private:
  void describe_into(std::string& out, int depth) const {
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += op_;
    out += '#';
    constexpr char kHex[] = "0123456789abcdef";
    for (int shift = 28; shift >= 0; shift -= 4) {
      out += kHex[(id_ >> shift) & 0xF];
    }
    if (materialized()) out += '*';
    out += '\n';
    for (const auto& input : inputs()) {
      input->describe_into(out, depth + 1);
    }
  }

  const NodeId id_;
  const std::string op_;
  const double op_stability_;
  const std::vector<std::weak_ptr<const NodeBase>> inputs_;
  mutable std::atomic<std::uint64_t> child_ordinal_{0};
  mutable std::atomic<std::uint64_t> release_ordinal_{0};
  std::atomic<bool> materialized_{false};
};

/// Non-owning reference to a per-row callback: the sink a fused scan
/// pushes rows into.  One indirect call per row and no allocation; the
/// referenced callable must outlive the scan.
template <typename T>
class RowSink {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RowSink>)
  explicit RowSink(F& f) noexcept
      : target_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* target, const T& row) {
          (*static_cast<F*>(target))(row);
        }) {}

  void operator()(const T& row) const { call_(target_, row); }

 private:
  void* target_;
  void (*call_)(void*, const T&);
};

/// The sink a streamed source's generator pushes its rows into.  Rows
/// are copied into a buffer of default-constructed rows and handed to
/// the consumer kRows at a time, so the consumer's indirect call and the
/// guard checkpoint are paid per batch, not per row.  Valid only during
/// the generator's call.
template <typename T>
class SourceSink {
 public:
  static constexpr std::size_t kRows = 1024;

  explicit SourceSink(RowSink<std::span<const T>> consumer)
      : consumer_(consumer), buffer_(kRows) {}

  void operator()(const T& row) {
    buffer_[size_] = row;
    if (++size_ == kRows) flush();
  }

  /// Hands the buffered rows to the consumer.
  void flush() {
    if (size_ == 0) return;
    consumer_(std::span<const T>(buffer_.data(), size_));
    size_ = 0;
  }

 private:
  RowSink<std::span<const T>> consumer_;
  std::vector<T> buffer_;
  std::size_t size_ = 0;
};

/// A typed plan node.  Four kinds share it:
///
///   source  — holds an immutable, shareable row buffer from construction;
///   streamed source — a Generate body that pushes the source's rows into
///             a SourceSink on every demand (a generator, a DPNT reader)
///             and never stores them, so a dataset larger than memory can
///             be scanned in O(1) rows;
///   narrow  — a Stream body (where/select/select_many) that pushes its
///             output rows into a sink; scan() fuses it into its consumer;
///   wide    — a Compute body that builds and stores its output rows.
///
/// Every node is evaluated exactly once in the accounting sense: its
/// first evaluation checkpoints the guard, hits the plan.materialize
/// failpoint, records its span (op, stability, input and output rows),
/// observes op.wall_ms.<kind> and charges its rows to the guard.  A
/// narrow node remembers its output row count, so count() never re-runs
/// it; its second demand for rows re-runs its chain once more, silently,
/// to store them, and every later demand reads them.
template <typename T>
class Node final : public NodeBase {
 public:
  using Rows = std::vector<T>;
  /// Narrow body: pushes every output row into the sink and returns the
  /// number of input rows it read.  Receives the node's id so analyst
  /// callbacks can be contained per row under this node's name.
  using Stream = std::function<std::size_t(NodeId, RowSink<T>)>;
  /// Wide body: returns the output rows and reports the input row count.
  using Compute = std::function<Rows(std::size_t& input_rows)>;
  /// Streamed source body: pushes every row of the source into the sink.
  using Generate = std::function<void(SourceSink<T>&)>;

  /// Source node (protected datasets, partition parts): shares `rows`.
  Node(NodeId id, std::string op, std::shared_ptr<const Rows> rows)
      : NodeBase(id, std::move(op), 1.0), rows_(std::move(rows)) {
    held_.store(rows_.get(), std::memory_order_release);
    mark_materialized();
  }

  /// Streamed source node: `generate` runs again on every demand, one
  /// demand at a time, so it need not be reentrant.  Like any source it
  /// is evaluated from construction (no span, no row charge); its scans
  /// checkpoint the guard once per SourceSink batch.
  Node(NodeId id, std::string op, Generate generate)
    requires std::is_default_constructible_v<T>
      : NodeBase(id, std::move(op), 1.0), generate_(std::move(generate)) {
    mark_materialized();
  }

  /// Narrow node: `stream` runs on demand, fused into its consumer.
  Node(NodeId id, std::string op, double op_stability, Stream stream,
       std::vector<std::weak_ptr<const NodeBase>> inputs)
      : NodeBase(id, std::move(op), op_stability, std::move(inputs)),
        stream_(std::move(stream)),
        traced_(tracing_armed()) {}

  /// Wide node: `compute` runs once, on first demand, and its rows stay.
  Node(NodeId id, std::string op, double op_stability, Compute compute,
       std::vector<std::weak_ptr<const NodeBase>> inputs)
      : NodeBase(id, std::move(op), op_stability, std::move(inputs)),
        compute_(std::move(compute)),
        traced_(tracing_armed()) {}

  /// The row buffer this node holds, or nullptr.  Never evaluates.
  [[nodiscard]] const Rows* held_rows() const {
    return held_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool holds_rows() const override {
    return held_rows() != nullptr;
  }

  /// The node's rows, storing them first if the node holds none yet.
  /// For callers that need rows addressable (the parallel group_by's
  /// chunks, join's build side, data_unsafe()).  A streamed source
  /// stores nothing and refuses.
  const Rows& rows() {
    if (const Rows* held = held_rows()) return *held;
    if (generate_) {
      throw InvalidQueryError("a streamed source never stores its rows");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (held_rows() == nullptr) store_locked();
    return *held_rows();
  }

  /// The rows scan() would read in place — held rows, or rows stored now
  /// (a wide node's first demand, a narrow node's second) — or nullptr
  /// when scan() would stream instead (an unevaluated narrow node, a
  /// streamed source).  Consumers that split their input into chunks
  /// (partition, noisy_counts) chunk these rows and stream otherwise.
  const Rows* rows_in_place() {
    if (const Rows* held = held_rows()) return held;
    if (generate_) return nullptr;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (held_rows() == nullptr) {
      if (stream_ && !materialized()) return nullptr;
      store_locked();
    }
    return held_rows();
  }

  /// The node's output row count.  A narrow node that has run its fused
  /// pass remembers the count, so counting it again re-runs nothing; a
  /// streamed source streams again.
  std::size_t count() {
    const Rows* held = held_rows();
    if (held == nullptr) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if constexpr (std::is_default_constructible_v<T>) {
        if (generate_) return generate_into(kDiscard);
      }
      if (held_rows() == nullptr && stream_) {
        return materialized() ? out_rows_ : first_fused_pass(kDiscard);
      }
      if (held_rows() == nullptr) store_locked();
      held = held_rows();
    }
    return held->size();
  }

  /// Calls `f(row)` for every output row, in order, and returns the row
  /// count.  A node holding rows is read in place; an unevaluated narrow
  /// node runs its chain fused into `f` (its first evaluation), storing
  /// nothing; a streamed source streams into `f`; any other node stores
  /// its rows first (see rows()).
  ///
  /// Fault containment (docs/robustness.md): `f` runs inside the
  /// upstream narrow nodes' loops, which contain only their own analyst
  /// callbacks — a throwing `f` reaches the caller's containment boundary
  /// unrenamed, and a throwing upstream predicate is named after its own
  /// operator and node id.
  template <typename F>
  std::size_t scan(F&& f) {
    const Rows* held = held_rows();
    if (held == nullptr) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if constexpr (std::is_default_constructible_v<T>) {
        if (generate_) return generate_into(f);
      }
      if (held_rows() == nullptr) {
        if (stream_ && !materialized()) return first_fused_pass(f);
        store_locked();
      }
      held = held_rows();
    }
    for (const T& row : *held) f(row);
    return held->size();
  }

 private:
  /// Streamed source (mutex held, so the generator never runs
  /// concurrently with itself): runs the generator into `sink` one batch
  /// at a time, checkpointing the guard before each batch, and returns
  /// the row count.
  template <typename F>
  std::size_t generate_into(F& sink) const {
    std::size_t rows = 0;
    auto batch = [this, &rows, &sink](std::span<const T> part) {
      guard_checkpoint(op().c_str(), id());
      for (const T& row : part) sink(row);
      rows += part.size();
    };
    SourceSink<T> source{RowSink<std::span<const T>>(batch)};
    generate_(source);
    source.flush();
    return rows;
  }

  /// Narrow node, first demand (mutex held): streams straight into the
  /// consumer's `sink` under the full evaluation bookkeeping.
  template <typename F>
  std::size_t first_fused_pass(F& sink) {
    std::size_t out_rows = 0;
    auto counted = [&out_rows, &sink](const T& row) {
      ++out_rows;
      sink(row);
    };
    evaluate([&] {
      const std::size_t in_rows = stream_(id(), RowSink<T>(counted));
      return std::pair<std::size_t, std::size_t>{in_rows, out_rows};
    });
    out_rows_ = out_rows;
    return out_rows;
  }

  /// Stores the node's rows (mutex held).  A first evaluation runs under
  /// the full bookkeeping; a narrow node's second demand only re-runs
  /// its chain, since its span, guard charge, failpoint and wall-time
  /// observation already happened, into a buffer reserved at the fused
  /// pass's output count.  Dropping the body afterwards releases the
  /// captured parents.
  void store_locked() {
    auto rows = std::make_shared<Rows>();
    const auto fill = [this, &rows] {
      return contain_analyst(op().c_str(), id(), [this, &rows] {
        std::size_t in_rows = 0;
        if (compute_) {
          *rows = compute_(in_rows);
        } else {
          if (materialized()) rows->reserve(out_rows_);
          auto keep = [&rows](const T& row) { rows->push_back(row); };
          in_rows = stream_(id(), RowSink<T>(keep));
        }
        return std::pair<std::size_t, std::size_t>{in_rows, rows->size()};
      });
    };
    if (materialized()) {
      fill();
    } else {
      evaluate(fill);
    }
    rows_ = std::move(rows);
    stream_ = nullptr;
    compute_ = nullptr;
    held_.store(rows_.get(), std::memory_order_release);
  }

  /// First-evaluation bookkeeping around `body` (which returns its input
  /// and output row counts): guard checkpoint, operator span nested under
  /// whatever span demanded the node, the plan.materialize failpoint
  /// inside the containment boundary (an injected throw is
  /// indistinguishable from a throwing UDF), op.wall_ms.<kind> (one
  /// observation per node, never per record), then the guard's row
  /// charge.  A throw anywhere leaves the node unevaluated, so an aborted
  /// node can be demanded again later.
  template <typename Body>
  void evaluate(const Body& body) {
    guard_checkpoint(op().c_str(), id());
    const auto op_t0 = std::chrono::steady_clock::now();
    const auto run = [&] {
      contain_analyst(op().c_str(), id(),
                      [this] { failpoint::hit("plan.materialize", op()); });
      return body();
    };
    std::size_t out_rows = 0;
    if (traced_ && active_trace() != nullptr) {
      TraceScope scope(op());
      scope.set_stability(op_stability());
      const auto [in, out] = run();
      scope.set_rows(static_cast<std::int64_t>(in),
                     static_cast<std::int64_t>(out));
      out_rows = out;
    } else {
      out_rows = run().second;
    }
    builtin_metrics::observe_op_wall_ms(
        op(), std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - op_t0)
                  .count());
    guard_charge_rows(out_rows, op().c_str(), id());
    mark_materialized();
  }

  static constexpr auto kDiscard = [](const T&) {};

  // Serializes evaluation and a streamed source's scans; held rows are
  // immutable.
  std::mutex mutex_;
  std::size_t out_rows_ = 0;  // a fused pass's output count (mutex_)
  std::atomic<const Rows*> held_{nullptr};
  std::shared_ptr<const Rows> rows_;
  Stream stream_;
  Compute compute_;
  const Generate generate_;
  bool traced_ = false;
};

}  // namespace dpnet::core::plan
