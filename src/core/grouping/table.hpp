// Cache-conscious key table behind every grouping operator.
//
// GroupTable maps keys to dense slot indices (0, 1, 2, ... in first-
// occurrence order) and is the engine under group_by / group_by_spans /
// distinct / join / the set ops / partition / noisy_counts, and the
// toolkit miners.  The paper's workloads de-aggregate to
// billions of records, so the per-record cost of this table *is* the
// cost of the engine — std::unordered_map's node-per-key layout spends
// most of its time cache-missing through pointers.
//
// Layout (TurboHash-style, docs/architecture.md "grouping engine"):
//
//   * power-of-two array of 16-slot buckets.  Each bucket is one
//     cache-line-aligned record: 16 tag bytes up front (0x80 | 7 hash
//     bits, or 0 when empty) followed by the 16 uint32 slot indices
//     into the insertion log, so the tag scan and most slot reads hit
//     the same line.  A probe scans the 16 tags word-at-a-time (SWAR)
//     and touches a key only when its tag matches — no key compare at
//     all on most misses;
//   * open addressing with bucket-linear probing: a key lives in the
//     first bucket of its probe chain that had a free slot at insert
//     time, so a lookup may stop at the first bucket containing an
//     empty slot (the table never deletes);
//   * incremental rehash: growth allocates the doubled arrays but leaves
//     the old ones in place, migrating a couple of old buckets per
//     subsequent insert; probes consult new-then-old until the old
//     arrays drain.  No insert ever pays a full-table rehash, which
//     keeps feed()-style streaming latency flat;
//   * the insertion log (keys_ + cached mixed hashes) doubles as the
//     dense slot->key mapping, so first-occurrence order — which the
//     Group semantics and the determinism contract depend on — falls
//     out for free.
//
// Hashes are finalized with core::mix64 so identity std::hash
// (integers) still spreads tags, buckets, and the executor's radix
// partitions independently.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/hash.hpp"

namespace dpnet::core::grouping {

/// Slot value returned by find() when the key is absent.
inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Finalized 64-bit hash a GroupTable<K, Hash> derives from a key.  The
/// executor's radix-partitioned merge uses the same function so its
/// partitioning agrees with the tables it merges.
template <typename K, typename Hash = std::hash<K>>
[[nodiscard]] inline std::uint64_t mixed_hash(const K& key) {
  constexpr std::uint64_t kTableSalt = 0x67726f75706b6579ULL;  // "groupkey"
  return mix64(kTableSalt, static_cast<std::uint64_t>(Hash{}(key)));
}

namespace detail {

inline constexpr std::uint64_t kLowBytes = 0x0101010101010101ULL;
inline constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

inline std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// 0x80 set in every byte of `word` equal to `byte` (exact zero-byte
/// detector applied to word ^ broadcast(byte); no false positives).
inline std::uint64_t match_bytes(std::uint64_t word, std::uint8_t byte) {
  const std::uint64_t x = word ^ (kLowBytes * byte);
  return (x - kLowBytes) & ~x & kHighBits;
}

}  // namespace detail

template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class GroupTable {
 public:
  static constexpr std::uint32_t npos = kNoSlot;
  static constexpr std::size_t kBucketSlots = 16;

  GroupTable() = default;
  explicit GroupTable(std::size_t expected_keys) { reserve(expected_keys); }

  /// One probe unit: the 16 tag bytes and the 16 insertion-log indices
  /// they guard, aligned so the tags and the first twelve slots share a
  /// cache line (the tail four spill onto the next).
  struct alignas(64) Bucket {
    std::uint8_t tags[kBucketSlots];
    std::uint32_t slots[kBucketSlots];
  };

  /// Inserts `key` if absent.  Returns (dense slot index, inserted).
  /// Slot indices are assigned 0, 1, 2, ... in first-occurrence order
  /// and never change.
  template <typename KeyArg>
  std::pair<std::uint32_t, bool> acquire(KeyArg&& key) {
    return acquire_hashed(std::forward<KeyArg>(key), mixed_hash<K, Hash>(key));
  }

  /// acquire() with the mixed hash precomputed by the caller (the
  /// executor's two-phase merge hashes once per key, not once per probe).
  /// `h` must equal mixed_hash<K, Hash>(key).
  template <typename KeyArg>
  std::pair<std::uint32_t, bool> acquire_hashed(KeyArg&& key,
                                                std::uint64_t h) {
    if (buckets_ == 0) grow_to(kInitialBuckets);
    migrate_some(kMigrateStep);
    std::uint64_t insert_pos = 0;
    const std::uint32_t in_new = probe(table_, buckets_, h, key, &insert_pos);
    if (in_new != kNoSlot) return {in_new, false};
    if (old_buckets_ != 0) {
      const std::uint32_t in_old =
          probe(old_table_, old_buckets_, h, key, nullptr);
      if (in_old != kNoSlot) return {in_old, false};
    }
    if (keys_.size() >= kNoSlot) {
      throw InvalidQueryError("grouping table exceeds 2^32 - 1 keys");
    }
    const auto slot = static_cast<std::uint32_t>(keys_.size());
    keys_.emplace_back(std::forward<KeyArg>(key));
    hashes_.push_back(h);
    place(table_, insert_pos, tag_of(h), slot);
    if (keys_.size() * 8 >= buckets_ * kBucketSlots * 7) {
      // 4x growth: total migration work across the table's lifetime is
      // ~N/3 re-homes instead of the ~N that doubling costs, and every
      // migration is a cache miss.  Occupancy cycles 22%..88%, which is
      // free here — a probe touches one bucket line regardless of how
      // sparse the array is.
      grow_to(buckets_ * 4);
    }
    return {slot, true};
  }

  /// Dense slot index of `key`, or kNoSlot.  Read-only: safe to call
  /// concurrently from executor workers while no thread mutates the
  /// table (the chunked partition and noisy_counts tallies rely on this).
  [[nodiscard]] std::uint32_t find(const K& key) const {
    return find_hashed(key, mixed_hash<K, Hash>(key));
  }

  /// find() with the mixed hash precomputed by the caller.
  [[nodiscard]] std::uint32_t find_hashed(const K& key,
                                          std::uint64_t h) const {
    if (buckets_ == 0) return kNoSlot;
    const std::uint32_t in_new = probe(table_, buckets_, h, key, nullptr);
    if (in_new != kNoSlot || old_buckets_ == 0) return in_new;
    return probe(old_table_, old_buckets_, h, key, nullptr);
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != kNoSlot;
  }

  /// Hints that the bucket for mixed hash `h` is about to be probed.
  /// Block scans (GroupBuilder, the executor's chunk loops, the bench
  /// harness) hash a run of keys first, prefetch, then probe, so the
  /// bucket misses that dominate high-cardinality grouping overlap
  /// instead of serializing.
  void prefetch_hashed(std::uint64_t h) const {
    if (buckets_ != 0) {
      __builtin_prefetch(table_.data() + (h & (buckets_ - 1)));
    }
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }

  /// The insertion log: keys in first-occurrence order, indexed by slot.
  /// key_at deduces its return from the log's operator[] so
  /// proxy-returning vectors (std::vector<bool>) hand back a value
  /// instead of a reference into a dead temporary.
  [[nodiscard]] const std::vector<K>& keys() const { return keys_; }
  [[nodiscard]] decltype(auto) key_at(std::uint32_t slot) const {
    return keys_[slot];
  }

  /// Cached mixed hash of a stored key (two-phase merges re-probe by it).
  [[nodiscard]] std::uint64_t hash_at(std::uint32_t slot) const {
    return hashes_[slot];
  }

  /// Consuming access for two-phase merges: moves a key out of the
  /// insertion log (by-value return; for std::vector<bool> the deduced
  /// type is the proxy, which stays valid — it points into the log, not
  /// at a temporary).  The table must not be probed afterwards.
  [[nodiscard]] auto steal_key(std::uint32_t slot) {
    return std::move(keys_[slot]);
  }

  /// Pre-sizes the bucket array (and the insertion log) for `n` keys.
  void reserve(std::size_t n) {
    keys_.reserve(n);
    hashes_.reserve(n);
    std::size_t target = kInitialBuckets;
    while (target * kBucketSlots * 7 < n * 8) target *= 2;
    if (target > buckets_) grow_to(target);
  }

 private:
  static constexpr std::size_t kInitialBuckets = 4;
  static constexpr std::size_t kMigrateStep = 2;

  static std::uint8_t tag_of(std::uint64_t h) {
    return static_cast<std::uint8_t>(0x80u | (h >> 57));
  }

  /// Scans the probe chain for `key`.  Returns its slot, or kNoSlot; in
  /// the latter case, when `insert_pos` is non-null, writes the global
  /// tag position (bucket * 16 + lane) where an insert belongs — the
  /// first free lane in the chain's first non-full bucket.
  template <typename KeyArg>
  std::uint32_t probe(const std::vector<Bucket>& table, std::size_t buckets,
                      std::uint64_t h, const KeyArg& key,
                      std::uint64_t* insert_pos) const {
    const std::uint64_t mask = buckets - 1;
    const std::uint8_t tag = tag_of(h);
    for (std::uint64_t b = h & mask;; b = (b + 1) & mask) {
      const Bucket& bucket = table[b];
      const std::uint64_t lo = detail::load_word(bucket.tags);
      const std::uint64_t hi = detail::load_word(bucket.tags + 8);
      std::uint64_t hits = detail::match_bytes(lo, tag);
      while (hits != 0) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(hits)) / 8;
        const std::uint32_t slot = bucket.slots[lane];
        if (eq_(keys_[slot], key)) return slot;
        hits &= hits - 1;
      }
      hits = detail::match_bytes(hi, tag);
      while (hits != 0) {
        const auto lane =
            8 + static_cast<std::size_t>(std::countr_zero(hits)) / 8;
        const std::uint32_t slot = bucket.slots[lane];
        if (eq_(keys_[slot], key)) return slot;
        hits &= hits - 1;
      }
      const std::uint64_t lo_free = detail::match_bytes(lo, 0);
      const std::uint64_t hi_free = detail::match_bytes(hi, 0);
      if (lo_free != 0 || hi_free != 0) {
        if (insert_pos != nullptr) {
          const std::size_t lane =
              lo_free != 0
                  ? static_cast<std::size_t>(std::countr_zero(lo_free)) / 8
                  : 8 + static_cast<std::size_t>(std::countr_zero(hi_free)) /
                            8;
          *insert_pos = b * kBucketSlots + lane;
        }
        return kNoSlot;
      }
    }
  }

  static void place(std::vector<Bucket>& table, std::uint64_t pos,
                    std::uint8_t tag, std::uint32_t slot) {
    Bucket& bucket = table[pos / kBucketSlots];
    bucket.tags[pos % kBucketSlots] = tag;
    bucket.slots[pos % kBucketSlots] = slot;
  }

  /// Re-homes one already-logged key into `table` without a key compare:
  /// migration and growth know the key is absent.
  static void place_fresh(std::vector<Bucket>& table, std::size_t buckets,
                          std::uint64_t h, std::uint32_t slot) {
    const std::uint64_t mask = buckets - 1;
    for (std::uint64_t b = h & mask;; b = (b + 1) & mask) {
      Bucket& bucket = table[b];
      const std::uint64_t lo =
          detail::match_bytes(detail::load_word(bucket.tags), 0);
      const std::uint64_t hi =
          detail::match_bytes(detail::load_word(bucket.tags + 8), 0);
      if (lo == 0 && hi == 0) continue;
      const std::size_t lane =
          lo != 0 ? static_cast<std::size_t>(std::countr_zero(lo)) / 8
                  : 8 + static_cast<std::size_t>(std::countr_zero(hi)) / 8;
      bucket.tags[lane] = tag_of(h);
      bucket.slots[lane] = slot;
      return;
    }
  }

  /// Migrates up to `step` old buckets into the new arrays.  Old buckets
  /// are left intact (probes may still cross them mid-migration); the
  /// arrays are released wholesale once the cursor drains.
  ///
  /// Re-homing reads the cached hash of every live slot (a random access
  /// into hashes_) and then writes a random destination bucket; done
  /// naively those misses serialize.  Each bucket is instead drained in
  /// three short passes — gather slots + prefetch hashes, read hashes +
  /// prefetch destination tag lines, place — so the misses overlap.
  void migrate_some(std::size_t step) {
    if (old_buckets_ == 0) return;
    while (step-- > 0 && migrate_cursor_ < old_buckets_) {
      const Bucket& from = old_table_[migrate_cursor_];
      std::uint32_t live[kBucketSlots];
      std::uint64_t live_hash[kBucketSlots];
      std::size_t n = 0;
      for (std::size_t lane = 0; lane < kBucketSlots; ++lane) {
        if (from.tags[lane] == 0) continue;
        live[n] = from.slots[lane];
        __builtin_prefetch(hashes_.data() + live[n]);
        ++n;
      }
      const std::uint64_t mask = buckets_ - 1;
      for (std::size_t i = 0; i < n; ++i) {
        live_hash[i] = hashes_[live[i]];
        __builtin_prefetch(table_.data() + (live_hash[i] & mask));
      }
      for (std::size_t i = 0; i < n; ++i) {
        place_fresh(table_, buckets_, live_hash[i], live[i]);
      }
      ++migrate_cursor_;
    }
    if (migrate_cursor_ >= old_buckets_) {
      old_table_.clear();
      old_table_.shrink_to_fit();
      old_buckets_ = 0;
      migrate_cursor_ = 0;
    }
  }

  /// Doubles (or pre-sizes) the bucket array.  Any in-flight migration
  /// is drained first so at most one old generation exists at a time.
  void grow_to(std::size_t target_buckets) {
    while (old_buckets_ != 0) migrate_some(old_buckets_);
    if (buckets_ == 0) {
      buckets_ = target_buckets;
      table_.assign(buckets_, Bucket{});
      return;
    }
    old_table_ = std::move(table_);
    old_buckets_ = buckets_;
    migrate_cursor_ = 0;
    buckets_ = target_buckets;
    table_.assign(buckets_, Bucket{});
  }

  std::vector<Bucket> table_;
  std::size_t buckets_ = 0;

  std::vector<Bucket> old_table_;
  std::size_t old_buckets_ = 0;
  std::size_t migrate_cursor_ = 0;

  std::vector<K> keys_;
  std::vector<std::uint64_t> hashes_;
  [[no_unique_address]] Eq eq_{};
};

}  // namespace dpnet::core::grouping
