// Chaos coverage for the live ops surface (docs/observability.md,
// "Operating the server"): the ops-snapshot publish is a diagnostic side
// channel, so faulting it (obs.snapshot.publish) must never fail a
// request, never charge or refund epsilon, and never leave a torn
// document on disk — the atomic temp+rename publish means the last good
// file survives any mid-publish fault.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/failpoint.hpp"
#include "core/json.hpp"
#include "net/packet.hpp"
#include "serve/server.hpp"

namespace dpnet::serve {
namespace {

std::vector<net::Packet> small_trace() {
  std::vector<net::Packet> trace(32);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    net::Packet& p = trace[i];
    p.timestamp = static_cast<double>(i) * 0.001;
    p.protocol = (i % 2 == 0) ? net::kProtoTcp : net::kProtoUdp;
    p.length = 64;
  }
  return trace;
}

std::string request_line(std::uint64_t id, const std::string& analyst,
                         double eps) {
  core::JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("analyst").value(analyst);
  w.key("query").value("count");
  w.key("eps").value(eps);
  w.end_object();
  return w.str();
}

std::string submit_one(QueryServer& server, const std::string& frame) {
  std::string response;
  server.submit_frame(frame,
                      [&response](const std::string& line) { response = line; });
  server.drain();
  return response;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A faulted snapshot publish leaves the previous document intact: the
// rename never happened, so `dpnet_cli top` keeps reading the last good
// dpnet.ops.v1 snapshot — never a torn one.
TEST(OpsSurfaceChaos, SnapshotPublishFaultLeavesLastGoodDocument) {
  const char* snap_path = "chaos_ops_snapshot_tmp.json";
  std::remove(snap_path);
  ServerConfig cfg;
  cfg.threads = 2;
  cfg.ops_snapshot_path = snap_path;
  cfg.ops_snapshot_interval_ms = 0;  // publish on every drained response
  QueryServer server(small_trace(), cfg);
  // Construction force-published an initial snapshot.
  const std::string initial = read_file(snap_path);
  EXPECT_EQ(core::parse_json(initial).at("schema").string, "dpnet.ops.v1");
  {
    core::failpoint::ScopedFailpoint fp(
        "obs.snapshot.publish",
        [](std::string_view) { throw std::runtime_error("injected"); });
    const std::string response =
        submit_one(server, request_line(1, "alice", 0.125));
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
    // The on-disk snapshot is byte-identical to the pre-fault publish.
    EXPECT_EQ(read_file(snap_path), initial);
  }
  EXPECT_DOUBLE_EQ(server.dataset_spent(), 0.125);
  // Fault cleared: the next response publishes a fresh document that
  // reflects the spend.
  submit_one(server, request_line(2, "alice", 0.125));
  const std::string fresh = read_file(snap_path);
  const core::JsonValue doc = core::parse_json(fresh);
  EXPECT_EQ(doc.at("schema").string, "dpnet.ops.v1");
  EXPECT_DOUBLE_EQ(doc.at("dataset").at("spent").number, 0.25);
  std::remove(snap_path);
  std::remove((std::string(snap_path) + ".tmp").c_str());
}

}  // namespace
}  // namespace dpnet::serve
