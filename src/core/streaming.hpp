// One-pass differentially-private counting for datasets too large to
// materialize (the paper's IspTraffic is 15.7 B de-aggregated records).
//
// StreamingHistogram accumulates per-cell counts as records stream by and
// releases them all at once with Laplace noise.  Because the cells
// partition the records (each record lands in at most one cell), the
// whole histogram costs a single epsilon — the streaming counterpart of
// Queryable::partition + per-part noisy_count.
#pragma once

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/budget.hpp"
#include "core/errors.hpp"
#include "core/grouping/table.hpp"
#include "core/hash.hpp"
#include "core/noise.hpp"
#include "core/release.hpp"
#include "core/trace.hpp"

namespace dpnet::core {

template <typename K>
class StreamingHistogram {
 public:
  /// `cells` fixes the public cell universe up front (records outside it
  /// are dropped, mirroring Partition's unlisted-key semantics).
  StreamingHistogram(std::vector<K> cells,
                     std::shared_ptr<PrivacyBudget> budget,
                     std::shared_ptr<NoiseSource> noise)
      : budget_(std::move(budget)) {
    if (!budget_) throw InvalidQueryError("streaming histogram needs budget");
    if (!noise) throw InvalidQueryError("streaming histogram needs noise");
    // Only the stream base is needed, at construction time: capturing it
    // here instead of holding the shared_ptr lets the caller's
    // NoiseSource die with the caller.
    id_ = mix64(kStreamingSalt, noise->stream_base());
    cell_index_.reserve(cells.size());
    for (auto& c : cells) {
      if (!cell_index_.acquire(std::move(c)).second) {
        throw InvalidQueryError("streaming histogram cells must be distinct");
      }
    }
    counts_.assign(cell_index_.size(), 0.0);
  }

  /// Accumulates one record (O(1); never touches the budget).  The cell
  /// lookup rides the grouping engine's tag-byte table — a couple of
  /// cache lines per record instead of unordered_map's pointer chase.
  void feed(const K& cell) {
    const std::uint32_t slot = cell_index_.find(cell);
    if (slot != grouping::kNoSlot) counts_[slot] += 1.0;
    ++records_seen_;
  }

  /// Dense index of `cell` in cells() order, or grouping::kNoSlot.  The
  /// cell index is immutable after construction, so concurrent lookups
  /// are safe — core::exec::parallel_feed_histogram classifies records
  /// on worker threads with it.
  [[nodiscard]] std::uint32_t cell_slot(const K& cell) const {
    return cell_index_.find(cell);
  }

  /// Trusted bulk accumulation for core::exec parallel feeders: adds
  /// per-cell tallies (indexed in cells() order) plus the number of
  /// records they were computed from.  Equivalent to feeding each record
  /// individually.
  void feed_tallies(const std::vector<double>& tallies,
                    std::uint64_t records) {
    if (tallies.size() != counts_.size()) {
      throw InvalidQueryError("streaming tally size must match cell count");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += tallies[i];
    records_seen_ += records;
  }

  /// Number of records fed so far (trusted side bookkeeping).
  [[nodiscard]] std::uint64_t records_seen() const { return records_seen_; }

  /// Releases every cell's noisy count, charging `eps` once for the whole
  /// histogram (the cells are disjoint).  The histogram can be released
  /// repeatedly; each release charges again and draws fresh noise.  The
  /// commit goes through the one release primitive (core/release.hpp):
  /// a tripped guard or an armed "core.release.charge" failpoint stops it
  /// before the charge, and the ledger/journal entry carries id().
  [[nodiscard]] std::unordered_map<K, double> release(double eps) {
    if (!(eps > 0.0)) {
      throw InvalidEpsilonError("release epsilon must be > 0");
    }
    TraceScope scope("streaming_release");
    const auto start = std::chrono::steady_clock::now();
    // Fork a per-release noise source (same scheme as plan-node releases:
    // histogram id + release ordinal), so the cell noise is a fixed
    // function of the seed and release number, not of who else shares
    // the underlying NoiseSource.
    NoiseSource local(mix64(id_, releases_++));
    commit_release(scope, {{budget_, 1.0}},
                   {"streaming_release", "laplace", eps, id_, records_seen_,
                    counts_.size()},
                   start);
    std::unordered_map<K, double> out;
    out.reserve(counts_.size());
    // Draw order follows cells() order, exactly as the historical
    // unordered_map implementation iterated cells_ — releases stay
    // byte-identical across the rewrite.
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      out.emplace(cell_index_.key_at(static_cast<std::uint32_t>(i)),
                  counts_[i] + local.laplace(1.0 / eps));
    }
    return out;
  }

  /// The histogram's fixed id, derived from its noise stream base: the
  /// node id its releases stamp on ledger and journal entries.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// The cell universe, in construction order (the grouping table's
  /// insertion log doubles as the dense slot -> cell mapping).
  [[nodiscard]] const std::vector<K>& cells() const {
    return cell_index_.keys();
  }

 private:
  static constexpr std::uint64_t kStreamingSalt = 0x73747265616d68ULL;

  grouping::GroupTable<K> cell_index_;
  std::vector<double> counts_;  // indexed by cell slot
  std::shared_ptr<PrivacyBudget> budget_;
  std::uint64_t id_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t records_seen_ = 0;
};

}  // namespace dpnet::core
