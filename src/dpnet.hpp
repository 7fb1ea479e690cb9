// Umbrella header: the full dpnet public API.
//
//   #include "dpnet.hpp"
//
// pulls in the privacy engine, the analysis toolkit, the network
// substrate, the dataset generators, and the paper's analyses.  Fine-
// grained headers remain available for targeted includes.
#pragma once

// Engine.
#include "core/audit.hpp"
#include "core/budget.hpp"
#include "core/errors.hpp"
#include "core/exec/executor.hpp"
#include "core/exec/policy.hpp"
#include "core/group.hpp"
#include "core/json.hpp"
#include "core/mechanisms.hpp"
#include "core/metrics.hpp"
#include "core/noise.hpp"
#include "core/plan.hpp"
#include "core/queryable.hpp"
#include "core/trace.hpp"

// Toolkit (paper §4 and extensions).
#include "toolkit/cdf.hpp"
#include "toolkit/frequent_strings.hpp"
#include "toolkit/itemsets.hpp"
#include "toolkit/range_tree.hpp"
#include "toolkit/sliding.hpp"
#include "toolkit/topk.hpp"

// Network substrate.
#include "net/anonymize.hpp"
#include "net/classifier.hpp"
#include "net/flow.hpp"
#include "net/ip.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "net/records.hpp"
#include "net/tcp.hpp"
#include "net/trace_io.hpp"

// Dataset generators.
#include "tracegen/distributions.hpp"
#include "tracegen/hotspot.hpp"
#include "tracegen/ip_scatter.hpp"
#include "tracegen/isp_traffic.hpp"

// Linear algebra.
#include "linalg/eigen.hpp"
#include "linalg/gmm.hpp"
#include "linalg/kmeans.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pca.hpp"

// The paper's analyses (§5) and extensions.
#include "analysis/anomaly.hpp"
#include "analysis/flow_stats.hpp"
#include "analysis/packet_dist.hpp"
#include "analysis/principal.hpp"
#include "analysis/rules.hpp"
#include "analysis/scan_detection.hpp"
#include "analysis/stepping_stones.hpp"
#include "analysis/topology.hpp"
#include "analysis/worm.hpp"

// Metrics.
#include "stats/metrics.hpp"

// Mediated query server (dpnet_cli serve).
#include "serve/protocol.hpp"
#include "serve/server.hpp"
