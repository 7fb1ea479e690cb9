#include "analysis/anomaly.hpp"

#include <stdexcept>

namespace dpnet::analysis {

using net::LinkPacket;

linalg::Matrix dp_link_time_matrix(
    const core::Queryable<LinkPacket>& records,
    const AnomalyOptions& options) {
  if (options.links <= 0 || options.windows <= 0) {
    throw std::invalid_argument("anomaly options require grid dimensions");
  }
  if (!(options.eps > 0.0)) {
    throw std::invalid_argument(
        "anomaly options require an explicit eps > 0 (no default accuracy)");
  }
  std::vector<int> link_keys(static_cast<std::size_t>(options.links));
  for (int l = 0; l < options.links; ++l) {
    link_keys[static_cast<std::size_t>(l)] = l;
  }
  std::vector<int> window_keys(static_cast<std::size_t>(options.windows));
  for (int w = 0; w < options.windows; ++w) {
    window_keys[static_cast<std::size_t>(w)] = w;
  }

  // One histogram grid: link rows by window columns, one pass over the
  // records and one eps for the whole matrix (each link part releases one
  // window histogram, so partition's max-cost rule charges eps once).
  const std::vector<std::vector<double>> cells = records.noisy_counts(
      link_keys, [](const LinkPacket& r) { return r.link; }, window_keys,
      [](const LinkPacket& r) { return r.window; }, options.eps,
      options.exec);
  linalg::Matrix counts(link_keys.size(), window_keys.size());
  for (std::size_t l = 0; l < link_keys.size(); ++l) {
    for (std::size_t w = 0; w < window_keys.size(); ++w) {
      counts(l, w) = cells[l][w];
    }
  }
  return counts;
}

std::vector<double> anomaly_norms(const linalg::Matrix& counts,
                                  const AnomalyOptions& options) {
  const linalg::PcaSubspace subspace =
      linalg::fit_pca(counts, options.components);
  std::vector<double> norms = linalg::residual_norms(counts, subspace);
  for (double& n : norms) n *= options.bytes_per_packet;
  return norms;
}

linalg::Matrix exact_link_time_matrix(
    const std::vector<std::vector<double>>& true_counts) {
  if (true_counts.empty()) {
    throw std::invalid_argument("empty count matrix");
  }
  linalg::Matrix out(true_counts.size(), true_counts.front().size());
  for (std::size_t l = 0; l < true_counts.size(); ++l) {
    if (true_counts[l].size() != out.cols()) {
      throw std::invalid_argument("ragged count matrix");
    }
    for (std::size_t w = 0; w < out.cols(); ++w) {
      out(l, w) = true_counts[l][w];
    }
  }
  return out;
}

}  // namespace dpnet::analysis
