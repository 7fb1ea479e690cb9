#include "analysis/anomaly.hpp"

#include <stdexcept>

#include "core/exec/executor.hpp"

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

  linalg::Matrix counts(static_cast<std::size_t>(options.links),
                        static_cast<std::size_t>(options.windows));
  auto rows = records.partition(
      link_keys, [](const LinkPacket& r) { return r.link; }, options.exec);
  // Each link's row (one window histogram) derives only from that link's
  // part, so rows are independent branches and fan out under the
  // executor policy.
  const double eps = options.eps;
  const std::vector<std::vector<double>> row_counts = core::exec::map_parts(
      options.exec, link_keys, rows,
      [&window_keys, eps](int, const core::Queryable<LinkPacket>& row) {
        return row.noisy_counts(
            window_keys, [](const LinkPacket& r) { return r.window; }, eps);
      });
  for (int l = 0; l < options.links; ++l) {
    for (int w = 0; w < options.windows; ++w) {
      counts(static_cast<std::size_t>(l), static_cast<std::size_t>(w)) =
          row_counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(w)];
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
