// Radix-partitioned two-phase parallel grouping.
//
// Phase 1 (build): the input is split into contiguous row chunks, one
// per worker.  Each worker scans its chunk and accumulates into
// *private* GroupTables, one per radix partition (middle bits of the
// key's mixed hash), remembering for every key the global row index of
// its first occurrence in the chunk.  No shared mutable state, so no
// locks and no false sharing beyond the output vectors.
//
// Phase 2 (merge): partitions are disjoint by construction — a key's
// hash lands it in exactly one — so each partition merges independently
// (again under the executor).  Workers are merged in chunk order; chunk
// order is row order, so the first worker holding a key also holds its
// globally-first occurrence, and concatenating its item runs in worker
// order reproduces input order exactly.  A final sort of the merged
// groups by first-occurrence row index restores the sequential
// insertion order.
//
// The result is therefore byte-identical to the sequential
// GroupBuilder loop at any thread count — the same determinism contract
// the executor already guarantees for noise and traces
// (docs/architecture.md, "grouping engine").
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/exec/executor.hpp"
#include "core/group.hpp"
#include "core/grouping/builder.hpp"
#include "core/grouping/table.hpp"
#include "core/guard.hpp"

namespace dpnet::core::exec {

/// Radix fan-out of the two-phase merge.  The partition index uses the
/// *middle* hash bits: the low bits pick the table bucket and the top
/// seven feed the tag byte, so the three must stay independent.
inline constexpr std::size_t kGroupRadixBits = 6;
inline constexpr std::size_t kGroupRadixParts = std::size_t{1}
                                                << kGroupRadixBits;

/// Rows between guard checkpoints in the per-row build loops (power of
/// two; the checkpoint is a TLS read when no guard is installed).
inline constexpr std::size_t kGroupCheckpointStride = 4096;

namespace group_detail {

struct ChunkBounds {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Contiguous near-even split of [0, n) into `workers` chunks; chunk
/// order is row order, which phase 2's merge relies on.
inline ChunkBounds chunk_bounds(std::size_t n, std::size_t workers,
                                std::size_t w) {
  const std::size_t base = n / workers;
  const std::size_t rem = n % workers;
  const std::size_t lo = w * base + std::min(w, rem);
  return {lo, lo + base + (w < rem ? 1 : 0)};
}

/// Chunks of a pass over n rows: one per policy thread, at most n, at
/// least one.
inline std::size_t chunk_count(const ExecPolicy& policy, std::size_t n) {
  return std::max<std::size_t>(1, std::min(policy.threads, n));
}

/// Runs `body(w, lo, hi)` for the chunk_count(policy, n) contiguous
/// chunks w of [0, n): inline when that is one chunk (no executor, so no
/// task events), else one executor task per chunk.
template <typename Body>
void run_chunks(const ExecPolicy& policy, std::size_t n, const Body& body) {
  const std::size_t workers = chunk_count(policy, n);
  if (workers == 1) {
    body(0, 0, n);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  // Task construction only; the row loops run under Executor::run.
  // dpnet-lint: suppress(R11)
  for (std::size_t w = 0; w < workers; ++w) {
    tasks.push_back([&body, n, workers, w] {
      const auto [lo, hi] = chunk_bounds(n, workers, w);
      body(w, lo, hi);
    });
  }
  Executor(policy).run(std::move(tasks));
}

/// parallel_buckets with a per-row slot array of `Slot`, the narrowest
/// type holding every bucket index plus the drop marker.
template <typename Slot, typename V, typename SlotF>
std::vector<std::vector<V>> bucket_rows(const ExecPolicy& policy,
                                        const std::vector<V>& rows,
                                        std::size_t buckets,
                                        const SlotF& slot_of) {
  constexpr Slot kDrop = std::numeric_limits<Slot>::max();
  // Pass 1: classify each row once, counting bucket sizes per chunk.
  std::vector<Slot> slots(rows.size());
  std::vector<std::vector<std::size_t>> sizes(
      chunk_count(policy, rows.size()));
  run_chunks(
      policy, rows.size(), [&](std::size_t w, std::size_t lo, std::size_t hi) {
        sizes[w].assign(buckets, 0);
        for (std::size_t i = lo; i < hi; ++i) {
          if ((i & (kGroupCheckpointStride - 1)) == 0) {
            guard_checkpoint("exec.classify");
          }
          const std::uint32_t slot = slot_of(rows[i]);
          slots[i] = slot == grouping::kNoSlot ? kDrop
                                               : static_cast<Slot>(slot);
          if (slot != grouping::kNoSlot) ++sizes[w][slot];
        }
      });
  // Pass 2: every bucket at its exact size, filled in row order, so each
  // kept row is copied once, straight into place.  Chunk w's rows of
  // bucket b start where the earlier chunks' rows of b end, which lets
  // the chunks fill their rows concurrently.
  std::vector<std::vector<V>> out(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    guard_checkpoint("exec.classify");
    std::size_t size = 0;
    for (auto& chunk : sizes) size += std::exchange(chunk[b], size);
    out[b].resize(size);
  }
  run_chunks(
      policy, rows.size(), [&](std::size_t w, std::size_t lo, std::size_t hi) {
        std::vector<std::size_t>& next = sizes[w];
        for (std::size_t i = lo; i < hi; ++i) {
          if ((i & (kGroupCheckpointStride - 1)) == 0) {
            guard_checkpoint("exec.classify");
          }
          const Slot slot = slots[i];
          if (slot != kDrop) out[slot][next[slot]++] = rows[i];
        }
      });
  return out;
}

}  // namespace group_detail

/// Counts rows per cell: tally[c] is the number of rows whose
/// slot_of(row) is c; rows whose slot is grouping::kNoSlot are dropped.
/// Workers tally contiguous chunks privately (O(cells) each) and the
/// integer tallies are summed, so the counts are exact at any thread
/// count.  `slot_of` runs once per row, concurrently across workers.
template <typename V, typename SlotF>
[[nodiscard]] std::vector<std::uint64_t> parallel_tally(
    const ExecPolicy& policy, const std::vector<V>& rows, std::size_t cells,
    const SlotF& slot_of) {
  std::vector<std::vector<std::uint64_t>> tallies(
      group_detail::chunk_count(policy, rows.size()));
  group_detail::run_chunks(
      policy, rows.size(), [&](std::size_t w, std::size_t lo, std::size_t hi) {
        tallies[w].assign(cells, 0);
        for (std::size_t i = lo; i < hi; ++i) {
          if ((i & (kGroupCheckpointStride - 1)) == 0) {
            guard_checkpoint("exec.tally");
          }
          const std::uint32_t slot = slot_of(rows[i]);
          if (slot != grouping::kNoSlot) ++tallies[w][slot];
        }
      });
  for (std::size_t w = 1; w < tallies.size(); ++w) {
    guard_checkpoint("exec.tally");
    for (std::size_t c = 0; c < cells; ++c) tallies[0][c] += tallies[w][c];
  }
  return std::move(tallies[0]);
}

/// Calls f(i) for every i in [0, n), in contiguous chunks of at least
/// `min_chunk` items: one executor task per chunk, inline when that is
/// one chunk.  `f` runs concurrently across workers.
template <typename F>
void parallel_for(ExecPolicy policy, std::size_t n, std::size_t min_chunk,
                  const F& f) {
  policy.threads = std::min(policy.threads, (n + min_chunk - 1) / min_chunk);
  group_detail::run_chunks(
      policy, n, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) f(i);
      });
}

/// Splits `rows` into `buckets` exactly-sized vectors, bucket b holding
/// the rows whose slot_of(row) is b in row order (rows whose slot is
/// grouping::kNoSlot are dropped): the same buckets at any thread count.
/// `slot_of` runs once per row, concurrently across workers, and a slot
/// array of one, two or four bytes per row remembers its answer, so no
/// kept row is ever held twice beyond `rows` itself.  Rows are placed by
/// assignment into default-constructed slots.  With one worker this is
/// slower than a single push_back pass for small rows, so partition only
/// uses it under a parallel policy.
template <typename V, typename SlotF>
  requires std::is_default_constructible_v<V>
[[nodiscard]] std::vector<std::vector<V>> parallel_buckets(
    const ExecPolicy& policy, const std::vector<V>& rows, std::size_t buckets,
    const SlotF& slot_of) {
  using group_detail::bucket_rows;
  if (buckets < 0xFF) {
    return bucket_rows<std::uint8_t>(policy, rows, buckets, slot_of);
  }
  if (buckets < 0xFFFF) {
    return bucket_rows<std::uint16_t>(policy, rows, buckets, slot_of);
  }
  return bucket_rows<std::uint32_t>(policy, rows, buckets, slot_of);
}

/// Groups `rows` by `key(row)` with the executor, returning exactly what
/// the sequential GroupBuilder loop returns: groups in first-occurrence
/// order, items in input order, byte-identical at any thread count.
template <typename V, typename KeyF>
[[nodiscard]] auto parallel_group_by(const ExecPolicy& policy,
                                     const std::vector<V>& rows,
                                     const KeyF& key)
    -> std::vector<
        Group<std::decay_t<std::invoke_result_t<KeyF, const V&>>, V>> {
  using K = std::decay_t<std::invoke_result_t<KeyF, const V&>>;
  const std::size_t n = rows.size();
  std::size_t workers = policy.threads;
  if (workers > n) workers = n;
  if (workers <= 1) {
    grouping::GroupBuilder<K, V> builder;
    for (std::size_t lo = 0; lo < n; lo += grouping::kScanBlock) {
      if ((lo & (kGroupCheckpointStride - 1)) == 0) {
        guard_checkpoint("exec.group_by");
      }
      builder.add_block(rows, lo, std::min(n, lo + grouping::kScanBlock),
                        key);
    }
    return builder.take();
  }

  // Phase 1: private radix-partitioned accumulation per worker.
  struct Acc {
    grouping::GroupTable<K> table;
    std::vector<std::vector<V>> items;      // per local slot
    std::vector<std::uint64_t> first_row;   // per local slot, global index
  };
  std::vector<std::vector<Acc>> accs(workers);
  group_detail::run_chunks(policy, n, [&](std::size_t w, std::size_t lo,
                                          std::size_t hi) {
    std::vector<Acc>& mine = accs[w];
    mine.resize(kGroupRadixParts);
    // Hash-then-probe block scan (same shape as GroupBuilder::add_block):
    // hash a block, prefetch each key's destination bucket, then probe,
    // so the per-partition table misses overlap.
    std::vector<K> bkeys;
    std::vector<std::uint64_t> bhashes;
    bkeys.reserve(grouping::kScanBlock);
    bhashes.reserve(grouping::kScanBlock);
    for (std::size_t blo = lo; blo < hi; blo += grouping::kScanBlock) {
      guard_checkpoint("exec.group_chunk");
      const std::size_t bhi = std::min(hi, blo + grouping::kScanBlock);
      bkeys.clear();
      bhashes.clear();
      // Bounded at kScanBlock rows; the enclosing block loop
      // checkpoints, so the guard still fires every block.
      // dpnet-lint: suppress(R11)
      for (std::size_t i = blo; i < bhi; ++i) {
        bkeys.push_back(key(rows[i]));
        const std::uint64_t h = grouping::mixed_hash<K>(bkeys.back());
        bhashes.push_back(h);
        mine[(h >> 32) & (kGroupRadixParts - 1)].table.prefetch_hashed(h);
      }
      // Bounded at kScanBlock rows — see above.
      // dpnet-lint: suppress(R11)
      for (std::size_t j = 0; j < bkeys.size(); ++j) {
        const std::size_t i = blo + j;
        const std::uint64_t h = bhashes[j];
        Acc& acc = mine[(h >> 32) & (kGroupRadixParts - 1)];
        const auto [slot, inserted] =
            acc.table.acquire_hashed(std::move(bkeys[j]), h);
        if (inserted) {
          acc.items.emplace_back();
          acc.first_row.push_back(i);
        }
        acc.items[slot].push_back(rows[i]);
      }
    }
  });

  // Phase 2: deterministic per-partition merge in worker (= row) order.
  struct MergedGroup {
    std::uint64_t first = 0;  // global row index of first occurrence
    Group<K, V> group;
  };
  std::vector<std::vector<MergedGroup>> parts(kGroupRadixParts);
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kGroupRadixParts);
    // Task construction only — see above.
    // dpnet-lint: suppress(R11)
    for (std::size_t p = 0; p < kGroupRadixParts; ++p) {
      tasks.push_back([&accs, &parts, workers, p] {
        grouping::GroupTable<K> index;
        std::vector<MergedGroup>& out = parts[p];
        for (std::size_t w = 0; w < workers; ++w) {
          Acc& acc = accs[w][p];
          const auto count = static_cast<std::uint32_t>(acc.table.size());
          for (std::uint32_t s = 0; s < count; ++s) {
            guard_checkpoint("exec.group_merge");
            const auto [g, inserted] = index.acquire_hashed(
                acc.table.steal_key(s), acc.table.hash_at(s));
            if (inserted) {
              out.push_back(MergedGroup{
                  acc.first_row[s],
                  Group<K, V>{index.key_at(g), std::move(acc.items[s])}});
            } else {
              std::vector<V>& items = out[g].group.items;
              items.insert(items.end(),
                           std::make_move_iterator(acc.items[s].begin()),
                           std::make_move_iterator(acc.items[s].end()));
            }
          }
        }
      });
    }
    Executor(policy).run(std::move(tasks));
  }

  // Restore sequential insertion order: sort by first occurrence (row
  // indices are unique, so the order is total and schedule-independent).
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<MergedGroup> merged;
  merged.reserve(total);
  for (auto& part : parts) {
    guard_checkpoint("exec.group_merge");
    for (auto& m : part) merged.push_back(std::move(m));
  }
  std::sort(merged.begin(), merged.end(),
            [](const MergedGroup& a, const MergedGroup& b) {
              return a.first < b.first;
            });
  std::vector<Group<K, V>> out;
  out.reserve(merged.size());
  for (auto& m : merged) out.push_back(std::move(m.group));
  return out;
}

}  // namespace dpnet::core::exec
