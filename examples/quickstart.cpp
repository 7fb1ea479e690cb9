// Quickstart: the paper's §2.3 example, end to end.
//
// A data owner wraps a packet trace in a protected Queryable with a total
// privacy budget; an analyst then counts the distinct hosts that sent more
// than 1024 bytes to port 80, spending a slice of that budget.  Everything
// the analyst learns passes through a noisy aggregation.
//
//   $ ./quickstart
#include <cstdio>
#include <memory>
#include <tuple>

#include "core/queryable.hpp"
#include "net/packet.hpp"
#include "tracegen/hotspot.hpp"

using namespace dpnet;
using core::Group;
using net::Ipv4;
using net::Packet;

int main() {
  // --- data owner side -----------------------------------------------
  // In production this would be a real capture; here we synthesize the
  // Hotspot-style trace the paper used.
  tracegen::HotspotGenerator generator(tracegen::HotspotConfig::small());
  const std::vector<Packet> trace = generator.generate();
  std::printf("trace: %zu packets\n", trace.size());

  const double total_budget = 1.0;  // the trace's lifetime epsilon
  auto budget = std::make_shared<core::RootBudget>(total_budget);
  auto noise = std::make_shared<core::NoiseSource>(/*seed=*/2026);
  core::Queryable<Packet> packets(trace, budget, noise);

  // --- analyst side ----------------------------------------------------
  // packets.Where(pkt => pkt.dstPort == 80)
  //        .GroupBy(pkt => pkt.srcIP)
  //        .Where(grp => grp.Sum(pkt => pkt.len) > 1024)
  //        .Count(epsilon_query);
  const double epsilon_query = 0.1;
  const double heavy_hosts =
      packets
          .where([](const Packet& p) { return p.dst_port == 80; })
          .group_by([](const Packet& p) { return p.src_ip; })
          .where([](const Group<Ipv4, Packet>& grp) {
            long bytes = 0;
            for (const Packet& p : grp.items) bytes += p.length;
            return bytes > 1024;
          })
          .noisy_count(epsilon_query);

  std::printf("hosts sending >1024 B to port 80 (noisy): %.1f\n",
              heavy_hosts);
  std::printf("true answer (generator ground truth):     %d\n",
              generator.web_heavy_hosts());
  std::printf("privacy spent: %.2f of %.2f\n", budget->spent(),
              total_budget);

  // The analyst can keep querying until the budget runs out...
  const double udp_count = packets
                               .where([](const Packet& p) {
                                 return p.protocol == net::kProtoUdp;
                               })
                               .noisy_count(0.1);
  std::printf("UDP packets (noisy): %.1f, privacy spent: %.2f\n", udp_count,
              budget->spent());

  // ...after which further aggregations are refused.
  try {
    std::ignore = packets.noisy_count(10.0);
  } catch (const core::BudgetExhaustedError& e) {
    std::printf("over-budget query refused: %s\n", e.what());
  }
  return 0;
}
