#include "core/noise.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/metrics.hpp"

namespace dpnet::core {

namespace {

// std::mt19937_64's parameters (C++ [rand.predef]): n = 312, m = 156,
// r = 31, the seeding multiplier f and the twist matrix a.
constexpr std::uint64_t kN = 312;
constexpr std::uint64_t kM = 156;
constexpr std::uint64_t kF = 6364136223846793005ULL;
constexpr std::uint64_t kA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLower = ~kUpper;

/// Seeded state word x[i] from x[i - 1].
std::uint64_t seed_word(std::uint64_t prev, std::uint64_t i) {
  return kF * (prev ^ (prev >> 62)) + i;
}

std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  return z ^ (z >> 43);
}

/// Output k of the stream (k < n - m) from the seeded words x[k],
/// x[k + 1] and x[k + m]: the first twist's step k reads no word it has
/// already rewritten.
std::uint64_t direct_output(std::uint64_t xk, std::uint64_t xk1,
                            std::uint64_t xkm) {
  const std::uint64_t y = (xk & kUpper) | (xk1 & kLower);
  return temper(xkm ^ (y >> 1) ^ ((y & 1) != 0 ? kA : 0));
}

double unit_of(std::uint64_t raw) { return (raw >> 11) * 0x1.0p-53; }

/// Inverse-CDF Laplace sample from one raw output: u uniform in
/// (-1/2, 1/2], the log argument guarded away from zero.
double laplace_of(std::uint64_t raw, double scale) {
  const double u = unit_of(raw) - 0.5;
  double mag = 1.0 - 2.0 * std::abs(u);
  if (mag <= 0.0) mag = std::numeric_limits<double>::min();
  const double draw = -scale * std::log(mag);
  return u < 0.0 ? -draw : draw;
}

}  // namespace

NoiseSource::NoiseSource(std::uint64_t seed) : seed_(seed) {}

std::uint64_t NoiseSource::raw() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (rng_ || drawn_ == kN - kM) return full_engine()();
  if (drawn_ == 0) {
    lo_ = seed_;
    lo_next_ = seed_word(lo_, 1);
    hi_ = lo_next_;
    for (std::uint64_t i = 2; i <= kM; ++i) hi_ = seed_word(hi_, i);
  }
  const std::uint64_t out = direct_output(lo_, lo_next_, hi_);
  ++drawn_;
  if (drawn_ < kN - kM) {
    lo_ = lo_next_;
    lo_next_ = seed_word(lo_next_, drawn_ + 1);
    hi_ = seed_word(hi_, drawn_ + kM);
  }
  return out;
}

std::mt19937_64& NoiseSource::full_engine() {
  if (!rng_) {
    rng_ = std::make_unique<std::mt19937_64>(seed_);
    rng_->discard(drawn_);
  }
  return *rng_;
}

std::mt19937_64& NoiseSource::engine() {
  // Unlocked, as documented: the engine's users serialize their own draws.
  return full_engine();
}

double NoiseSource::uniform() {
  // Draw in [0, 1) with 53 bits of precision.
  return unit_of(raw());
}

double NoiseSource::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double NoiseSource::laplace(double scale) {
  if (scale <= 0.0) throw std::invalid_argument("laplace scale must be > 0");
  builtin_metrics::noise_draws().increment();
  return laplace_of(raw(), scale);
}

std::int64_t NoiseSource::two_sided_geometric(double epsilon) {
  if (epsilon <= 0.0) {
    throw std::invalid_argument("geometric epsilon must be > 0");
  }
  builtin_metrics::noise_draws().increment();
  const double alpha = std::exp(-epsilon);
  // P(0) = (1 - alpha) / (1 + alpha); otherwise sign is +/- with equal
  // probability and |k| >= 1 is geometric with ratio alpha.
  const double p_zero = (1.0 - alpha) / (1.0 + alpha);
  double u = uniform();
  if (u < p_zero) return 0;
  // Remaining mass split evenly between the two signs.
  u = (u - p_zero) / (1.0 - p_zero);
  const bool negative = u < 0.5;
  double v = uniform();
  if (v <= 0.0) v = std::numeric_limits<double>::min();
  // Magnitude >= 1 with P(|k| = m) proportional to alpha^m.
  auto magnitude =
      static_cast<std::int64_t>(1.0 + std::floor(std::log(v) / std::log(alpha)));
  if (magnitude < 1) magnitude = 1;
  return negative ? -magnitude : magnitude;
}

double NoiseSource::gumbel() {
  builtin_metrics::noise_draws().increment();
  double u = uniform();
  if (u <= 0.0) u = std::numeric_limits<double>::min();
  return -std::log(-std::log(u));
}

double NoiseSource::gaussian(double mean, double stddev) {
  builtin_metrics::noise_draws().increment();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::normal_distribution<double> dist(mean, stddev);
  return dist(full_engine());
}

std::uint64_t NoiseSource::stream_base() { return raw(); }

std::uint64_t NoiseSource::next_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("next_index requires n > 0");
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uniform_int_distribution<std::uint64_t> dist(0, n - 1);
  return dist(full_engine());
}

}  // namespace dpnet::core
