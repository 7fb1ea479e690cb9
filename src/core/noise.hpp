// Randomness source for all differentially-private mechanisms.
//
// Every bit of randomness used by the engine flows through a NoiseSource so
// that experiments are reproducible under a fixed seed.  (The privacy
// guarantee itself of course requires a cryptographically unpredictable
// seed in production; seeding is the data owner's deployment concern.)
//
// The stream is exactly std::mt19937_64 seeded with the NoiseSource's
// seed.  Most sources are per-release forks that draw once or a few
// times, so the first outputs are computed straight from the seed:
// MT19937-64's output k (k < 156) depends only on the seeded state words
// x[k], x[k+1] and x[k+156], which the seeding recurrence yields in
// order.  The 312-word engine is built (and advanced past the direct
// draws) only when a longer stream or engine() needs it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <random>

namespace dpnet::core {

/// Thread-safe: draws serialize on an internal mutex, so one NoiseSource
/// may back queryables used from several analyst threads.
class NoiseSource {
 public:
  /// Constructs a deterministic noise source from `seed`.
  explicit NoiseSource(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform draw in [0, 1).
  double uniform();

  /// Uniform draw in [lo, hi).
  double uniform(double lo, double hi);

  /// Zero-mean Laplace draw with scale parameter `scale` (b).
  /// Standard deviation is sqrt(2) * scale.
  double laplace(double scale);

  /// Two-sided geometric ("discrete Laplace") draw with
  /// P(k) proportional to exp(-epsilon * |k|).  The integer analogue of
  /// Laplace noise; used by the geometric mechanism for counts.
  std::int64_t two_sided_geometric(double epsilon);

  /// Standard Gumbel draw; used for Gumbel-max sampling in the
  /// exponential mechanism.
  double gumbel();

  /// Standard normal draw (used by trace generators, not by mechanisms).
  double gaussian(double mean, double stddev);

  /// Uniform integer in [0, n).  n must be positive.
  std::uint64_t next_index(std::uint64_t n);

  /// Draws a raw 64-bit value for seeding derived noise streams (each
  /// Queryable root draws one; plan nodes fork per-release sources from
  /// it — see docs/architecture.md).  Not a mechanism draw: it never
  /// leaves the trusted side.
  [[nodiscard]] std::uint64_t stream_base();

  /// Access to the underlying engine for composing with <random>; it
  /// continues the stream exactly where the direct draws left it.
  /// NOT thread-safe; callers who use the raw engine own the locking.
  std::mt19937_64& engine();

 private:
  std::uint64_t raw();  // locked next output of the stream
  /// The engine, built on first use and advanced past the direct draws.
  /// Callers serialize: under mutex_, or by engine()'s contract.
  std::mt19937_64& full_engine();

  std::mutex mutex_;
  std::uint64_t seed_;
  // Direct draws (no engine yet): the outputs taken so far, and the seeded
  // words x[drawn_], x[drawn_ + 1] and x[drawn_ + 156] (set up on the
  // first draw).
  std::uint64_t drawn_ = 0;
  std::uint64_t lo_ = 0;
  std::uint64_t lo_next_ = 0;
  std::uint64_t hi_ = 0;
  std::unique_ptr<std::mt19937_64> rng_;  // built on demand
};

}  // namespace dpnet::core
