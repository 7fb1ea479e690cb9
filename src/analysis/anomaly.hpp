// §5.3.1: network-wide traffic anomaly detection (Lakhina et al.) under
// differential privacy.  The link x time load matrix is measured as one
// histogram grid (total cost: one epsilon), then PCA finds the normal
// subspace and the residual norm flags anomalies (Fig 4).
#pragma once

#include <vector>

#include "core/exec/policy.hpp"
#include "core/queryable.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pca.hpp"
#include "net/records.hpp"

namespace dpnet::analysis {

struct AnomalyOptions {
  int links = 0;    // grid dimensions (public metadata)
  int windows = 0;
  // Total privacy cost of the load matrix.  No baked-in default: the
  // analyst chooses the accuracy level against their budget (0 rejects).
  double eps = 0.0;
  std::size_t components = 4;  // "normal traffic" subspace dimension
  double bytes_per_packet = 1500.0;  // de-aggregation unit
  core::exec::ExecPolicy exec;  // the grid's tally and draws run in chunks
};

/// Privately measures the link x time packet-count matrix: one noisy
/// count per (link, window) cell, released as one noisy_counts grid —
/// the same release as partitioning by link and counting each row by
/// window, whose nested max-cost rule makes the matrix cost options.eps.
linalg::Matrix dp_link_time_matrix(
    const core::Queryable<net::LinkPacket>& records,
    const AnomalyOptions& options);

/// Residual traffic norm per time window (scaled to bytes): the part of
/// each window's traffic not explained by the top principal components.
std::vector<double> anomaly_norms(const linalg::Matrix& counts,
                                  const AnomalyOptions& options);

/// Noise-free reference matrix from exact counts.
linalg::Matrix exact_link_time_matrix(
    const std::vector<std::vector<double>>& true_counts);

}  // namespace dpnet::analysis
