#include "src/ml/kernels/hist.hpp"

#include <vector>

namespace iotax::ml::kernels {

SplitScan feature_scan(const std::uint16_t* col, const std::size_t* order,
                       std::size_t n, const double* node_grad,
                       std::size_t bins, const FeatureScanParams& p) {
  if (bins < 2) return {};
  static thread_local std::vector<double> hg_buf;
  static thread_local std::vector<double> hc_buf;
  if (hg_buf.size() < bins) {
    hg_buf.resize(bins);
    hc_buf.resize(bins);
  }
  double* hg = hg_buf.data();
  double* hc = hc_buf.data();
  SplitScan cand;
  for (std::size_t b = 0; b < bins; ++b) {
    hg[b] = 0.0;
    hc[b] = 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = col[order[i]];
    hg[b] += node_grad[i];
    hc[b] += 1.0;
  }
  double gl = 0.0;
  double hl = 0.0;
  double best = p.min_split_gain;
  for (std::size_t b = 0; b + 1 < bins; ++b) {
    gl += hg[b];
    hl += hc[b];
    const double hr = p.h_total - hl;
    if (hl < p.min_child_weight || hr < p.min_child_weight) continue;
    const double gr = p.g_total - gl;
    const double gain = gl * gl / (hl + p.reg_lambda) +
                        gr * gr / (hr + p.reg_lambda) - p.parent_score;
    if (gain > best) {
      best = gain;
      cand.gain = gain;
      cand.bin = b;
      cand.valid = true;
    }
  }
  return cand;
}

}  // namespace iotax::ml::kernels
