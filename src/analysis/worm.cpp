#include "analysis/worm.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/exec/executor.hpp"
#include "toolkit/frequent_strings.hpp"

namespace dpnet::analysis {

using core::Group;
using net::Ipv4;
using net::Packet;

namespace {

std::size_t distinct_srcs(const Group<std::string, Packet>& grp) {
  std::unordered_set<Ipv4> srcs;
  for (const Packet& p : grp.items) srcs.insert(p.src_ip);
  return srcs.size();
}

std::size_t distinct_dsts(const Group<std::string, Packet>& grp) {
  std::unordered_set<Ipv4> dsts;
  for (const Packet& p : grp.items) dsts.insert(p.dst_ip);
  return dsts.size();
}

}  // namespace

WormResult dp_worm_fingerprint(const core::Queryable<Packet>& packets,
                               const WormOptions& options) {
  if (!(options.eps_group_count > 0.0) ||
      !(options.eps_per_string_level > 0.0) ||
      !(options.eps_dispersion > 0.0)) {
    throw std::invalid_argument(
        "worm options require explicit eps_group_count, "
        "eps_per_string_level, and eps_dispersion > 0");
  }
  const std::size_t len = options.payload_len;
  auto with_payload = packets.where(
      [len](const Packet& p) { return p.payload.size() >= len; });

  // The paper's §5.1.2 fragment: group by payload, keep groups with enough
  // source and destination dispersion.  The groups stay protected; only
  // their noisy count is released.
  auto suspicious =
      with_payload
          .group_by([len](const Packet& p) { return p.payload.substr(0, len); })
          .where([&options](const Group<std::string, Packet>& grp) {
            return distinct_srcs(grp) >
                       static_cast<std::size_t>(options.src_threshold) &&
                   distinct_dsts(grp) >
                       static_cast<std::size_t>(options.dst_threshold);
          });
  WormResult result;
  result.noisy_group_count = suspicious.noisy_count(options.eps_group_count);

  // Spell out frequent payloads, then privately measure each candidate's
  // dispersion via one Partition (max-cost) over the candidates.
  toolkit::FrequentStringOptions fs;
  fs.length = len;
  fs.eps_per_level = options.eps_per_string_level;
  fs.threshold = options.string_threshold;
  fs.exec = options.exec;
  const auto payloads = with_payload.select(
      [](const Packet& p) { return p.payload; });
  const auto frequent = toolkit::frequent_strings(payloads, fs);

  std::vector<std::string> candidates;
  candidates.reserve(frequent.size());
  for (const auto& f : frequent) candidates.push_back(f.value);
  if (candidates.empty()) return result;

  auto parts = with_payload.partition(
      candidates, [len](const Packet& p) { return p.payload.substr(0, len); },
      options.exec);
  // Each candidate's dispersion measurements derive only from its own
  // partition branch, so the candidates fan out under the executor policy.
  std::unordered_map<std::string, double> counts;
  for (const auto& f : frequent) counts[f.value] = f.estimated_count;
  result.candidates = core::exec::map_parts(
      options.exec, candidates, parts,
      [&options, &counts](const std::string& payload,
                          const core::Queryable<Packet>& part) {
        WormCandidate cand;
        cand.payload = payload;
        cand.noisy_count = counts.at(payload);
        cand.noisy_distinct_srcs =
            part.select([](const Packet& p) { return p.src_ip; })
                .distinct()
                .noisy_count(options.eps_dispersion);
        cand.noisy_distinct_dsts =
            part.select([](const Packet& p) { return p.dst_ip; })
                .distinct()
                .noisy_count(options.eps_dispersion);
        cand.flagged = cand.noisy_distinct_srcs > options.src_threshold &&
                       cand.noisy_distinct_dsts > options.dst_threshold;
        return cand;
      });
  return result;
}

std::vector<std::string> exact_worm_payloads(std::span<const Packet> packets,
                                             std::size_t payload_len,
                                             int src_threshold,
                                             int dst_threshold) {
  struct Dispersion {
    std::unordered_set<Ipv4> srcs;
    std::unordered_set<Ipv4> dsts;
    std::size_t count = 0;
  };
  std::unordered_map<std::string, Dispersion> groups;
  for (const Packet& p : packets) {
    if (p.payload.size() < payload_len) continue;
    Dispersion& d = groups[p.payload.substr(0, payload_len)];
    d.srcs.insert(p.src_ip);
    d.dsts.insert(p.dst_ip);
    ++d.count;
  }
  std::vector<std::pair<std::string, std::size_t>> flagged;
  for (const auto& [payload, d] : groups) {
    if (d.srcs.size() > static_cast<std::size_t>(src_threshold) &&
        d.dsts.size() > static_cast<std::size_t>(dst_threshold)) {
      flagged.emplace_back(payload, d.count);
    }
  }
  std::sort(flagged.begin(), flagged.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::string> out;
  out.reserve(flagged.size());
  for (auto& [payload, count] : flagged) out.push_back(std::move(payload));
  return out;
}

}  // namespace dpnet::analysis
