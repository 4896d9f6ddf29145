// GBT split finding: per-feature histogram accumulation plus the
// best-bin gain sweep, over BinnedMatrix bin codes.
//
// feature_scan() is the per-(node, feature) unit of work in
// GradientBoostedTrees::build_tree: accumulate the node's gradient sum
// and row count into per-bin histograms, then sweep bins left to right
// for the best split. It is the seed's scan loop: histogram adds run in
// ascending row order, the sweep's prefix sums are sequential, and the
// strict `>` argmax keeps the first bin attaining the best gain.
//
// The scan has no AVX2 tier and does not dispatch: a vectorized sweep
// measured 1.10x as a microbenchmark and moved no end-to-end metric
// (EXPERIMENTS.md).
#pragma once

#include <cstddef>
#include <cstdint>

namespace iotax::ml::kernels {

struct FeatureScanParams {
  double g_total = 0.0;          // node gradient sum
  double h_total = 0.0;          // node hessian sum (== row count)
  double reg_lambda = 0.0;       // L2 on leaf weights
  double min_child_weight = 0.0;
  double min_split_gain = 0.0;
  double parent_score = 0.0;     // g^2 / (h + lambda) of the node
};

/// Best split found within one feature; `valid` is false when no bin
/// cleared the minimum gain.
struct SplitScan {
  double gain = 0.0;
  std::size_t bin = 0;
  bool valid = false;
};

/// Histogram + best-bin scan of one feature for one tree node.
///   col       feature-major bin codes (BinnedMatrix::col_codes)
///   order     the node's base-row indices, length n
///   node_grad gradient gathered per node row (node_grad[i] pairs with
///             order[i]), length n
///   bins      n_bins for this feature (>= 2)
/// Histogram scratch is one thread-local pair, re-zeroed on entry;
/// callers pass no workspace.
SplitScan feature_scan(const std::uint16_t* col, const std::size_t* order,
                       std::size_t n, const double* node_grad,
                       std::size_t bins, const FeatureScanParams& p);

}  // namespace iotax::ml::kernels
