#include "toolkit/frequent_strings.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/grouping/table.hpp"

namespace dpnet::toolkit {

namespace {

std::vector<int> all_bytes() {
  std::vector<int> bytes(256);
  for (int b = 0; b < 256; ++b) bytes[static_cast<std::size_t>(b)] = b;
  return bytes;
}

}  // namespace

std::vector<FrequentString> frequent_strings(
    const core::Queryable<std::string>& data,
    const FrequentStringOptions& options) {
  if (options.length == 0) {
    throw std::invalid_argument("frequent_strings requires length >= 1");
  }
  if (!(options.eps_per_level > 0.0)) {
    throw std::invalid_argument(
        "frequent-string options require an explicit eps_per_level > 0");
  }
  const std::size_t len = options.length;
  auto fixed = data.where([len](const std::string& s) {
                     return s.size() >= len;
                   })
                   .select([len](const std::string& s) {
                     return s.substr(0, len);
                   });

  const std::vector<int> bytes = all_bytes();
  // The frontier of surviving prefixes, with their latest count estimates.
  std::vector<FrequentString> frontier = {{std::string{}, 0.0}};

  for (std::size_t pos = 0; pos < len; ++pos) {
    std::vector<std::string> prefixes;
    prefixes.reserve(frontier.size());
    for (const auto& f : frontier) prefixes.push_back(f.value);

    // One histogram grid per level: a row of 256 byte counts per
    // surviving prefix, released in one pass at one eps_per_level (each
    // prefix's part releases one histogram, so the partition's max-cost
    // rule charges the level once).
    const std::vector<std::vector<double>> counts = fixed.noisy_counts(
        prefixes, [pos](const std::string& s) { return s.substr(0, pos); },
        bytes,
        [pos](const std::string& s) {
          return static_cast<int>(static_cast<unsigned char>(s[pos]));
        },
        options.eps_per_level, options.exec);

    std::vector<FrequentString> next;
    for (std::size_t p = 0; p < prefixes.size(); ++p) {
      for (int b : bytes) {
        const double count = counts[p][static_cast<std::size_t>(b)];
        if (count > options.threshold) {
          next.push_back(FrequentString{
              prefixes[p] + static_cast<char>(static_cast<unsigned char>(b)),
              count});
        }
      }
    }
    if (next.size() > options.max_candidates) {
      std::partial_sort(next.begin(),
                        next.begin() + static_cast<std::ptrdiff_t>(
                                           options.max_candidates),
                        next.end(),
                        [](const FrequentString& a, const FrequentString& b) {
                          return a.estimated_count > b.estimated_count;
                        });
      next.resize(options.max_candidates);
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }

  std::sort(frontier.begin(), frontier.end(),
            [](const FrequentString& a, const FrequentString& b) {
              return a.estimated_count > b.estimated_count;
            });
  return frontier;
}

double threshold_for_confidence(double eps_per_level,
                                double false_positive_rate,
                                std::size_t candidate_bins) {
  if (!(eps_per_level > 0.0) || !(false_positive_rate > 0.0) ||
      candidate_bins == 0) {
    throw std::invalid_argument(
        "confidence threshold needs positive eps, rate, and bins");
  }
  return std::log(static_cast<double>(candidate_bins) /
                  (2.0 * false_positive_rate)) /
         eps_per_level;
}

std::vector<FrequentString> exact_frequent_strings(
    const std::vector<std::string>& data, std::size_t length,
    double threshold) {
  // Key->count on the grouping engine's tag-byte table: the prefix gets
  // a dense slot on first sight, counts live in a flat vector.
  core::grouping::GroupTable<std::string> index;
  std::vector<std::size_t> counts;
  for (const std::string& s : data) {
    if (s.size() < length) continue;
    const auto [slot, inserted] = index.acquire(s.substr(0, length));
    if (inserted) counts.push_back(0);
    ++counts[slot];
  }
  std::vector<FrequentString> out;
  for (std::uint32_t slot = 0; slot < counts.size(); ++slot) {
    if (static_cast<double>(counts[slot]) > threshold) {
      out.push_back(FrequentString{index.key_at(slot),
                                   static_cast<double>(counts[slot])});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FrequentString& a, const FrequentString& b) {
              return a.estimated_count > b.estimated_count;
            });
  return out;
}

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789ABCDEF";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

}  // namespace dpnet::toolkit
