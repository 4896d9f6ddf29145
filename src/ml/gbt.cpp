#include "src/ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "src/ml/kernels/hist.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/stats/descriptive.hpp"
#include "src/util/parallel.hpp"

namespace iotax::ml {

namespace {

// Node size (rows in node × features scanned) below which the
// per-feature scan stays serial: dispatch overhead would beat the win.
constexpr std::size_t kParallelScanWork = 8192;

}  // namespace

void GbtParams::validate() const {
  if (n_estimators == 0) throw std::invalid_argument("GbtParams: 0 trees");
  if (max_depth == 0) throw std::invalid_argument("GbtParams: 0 depth");
  if (learning_rate <= 0.0 || learning_rate > 1.0) {
    throw std::invalid_argument("GbtParams: learning_rate not in (0,1]");
  }
  if (reg_lambda < 0.0) throw std::invalid_argument("GbtParams: reg_lambda < 0");
  if (subsample <= 0.0 || subsample > 1.0 || colsample <= 0.0 ||
      colsample > 1.0) {
    throw std::invalid_argument("GbtParams: subsample/colsample not in (0,1]");
  }
  if (max_bins < 2 || max_bins > kMaxBins) {
    throw std::invalid_argument("GbtParams: max_bins not in [2,4096]");
  }
  for (const auto b : per_feature_bins) {
    if (b < 2 || b > kMaxBins) {
      throw std::invalid_argument("GbtParams: per-feature bins not in [2,4096]");
    }
  }
  if (loss == GbtLoss::kQuantile &&
      (quantile_alpha <= 0.0 || quantile_alpha >= 1.0)) {
    throw std::invalid_argument("GbtParams: quantile_alpha not in (0,1)");
  }
}

GradientBoostedTrees::GradientBoostedTrees(GbtParams params)
    : params_(params) {
  params_.validate();
}

double GradientBoostedTrees::Tree::predict(std::span<const double> row) const {
  int idx = 0;
  while (nodes[static_cast<std::size_t>(idx)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(idx)];
    idx = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                  : n.right;
  }
  return nodes[static_cast<std::size_t>(idx)].value;
}

double GradientBoostedTrees::Tree::predict_codes(
    std::span<const std::uint16_t> codes) const {
  int idx = 0;
  while (nodes[static_cast<std::size_t>(idx)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(idx)];
    idx = static_cast<int>(codes[static_cast<std::size_t>(n.feature)]) <=
                  n.split_bin
              ? n.left
              : n.right;
  }
  return nodes[static_cast<std::size_t>(idx)].value;
}

GradientBoostedTrees::Tree GradientBoostedTrees::build_tree(
    const BinnedMatrix& binned, const std::vector<std::size_t>& rows,
    const std::vector<std::size_t>& features, std::span<const double> grad) {
  Tree tree;
  // Work queue: (node index, row slice [lo, hi) in `order`, depth).
  std::vector<std::size_t> order = rows;
  struct Item {
    int node;
    std::size_t lo;
    std::size_t hi;
    std::size_t depth;
  };
  std::vector<Item> stack;
  tree.nodes.push_back({});
  stack.push_back({0, 0, order.size(), 0});

  // Histogram scratch is owned by the kernel layer (thread-local);
  // hessian == 1 for squared loss, so the scan tracks gradient sums and
  // counts.
  std::vector<double> node_grad(order.size());
  std::vector<kernels::SplitScan> candidates;
  std::size_t hist_scans = 0;

  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    auto& node = tree.nodes[static_cast<std::size_t>(item.node)];
    const std::size_t n = item.hi - item.lo;
    // Gather this node's gradients once, in ascending row order — every
    // downstream sum sees the same FP sequence as reading grad[order[i]]
    // in place, and the per-feature scans stream a dense buffer instead
    // of re-gathering per feature.
    double g_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      node_grad[i] = grad[order[item.lo + i]];
      g_total += node_grad[i];
    }
    const double h_total = static_cast<double>(n);
    const double leaf_value =
        -g_total / (h_total + params_.reg_lambda) * params_.learning_rate;
    const double parent_score =
        g_total * g_total / (h_total + params_.reg_lambda);

    if (item.depth >= params_.max_depth ||
        h_total < 2.0 * params_.min_child_weight) {
      node.value = leaf_value;
      continue;
    }

    // Histogram + best-bin scan of one feature (kernels::feature_scan,
    // the seed loop verbatim). The within-feature strict `>` picks the
    // first bin attaining the feature's max gain, so folding features in
    // fixed order below reproduces the sequential first-feature-wins
    // selection exactly.
    const kernels::FeatureScanParams scan_params{
        g_total,
        h_total,
        params_.reg_lambda,
        params_.min_child_weight,
        params_.min_split_gain,
        parent_score};
    const auto scan_feature = [&](std::size_t f) -> kernels::SplitScan {
      const std::size_t bins = binned.n_bins(f);
      if (bins < 2) return {};
      return kernels::feature_scan(binned.col_codes(f).data(),
                                   order.data() + item.lo, n,
                                   node_grad.data(), bins, scan_params);
    };

    candidates.assign(features.size(), kernels::SplitScan{});
    hist_scans += features.size();
    if (n * features.size() >= kParallelScanWork && features.size() >= 2) {
      util::parallel_for(features.size(), [&](std::size_t j) {
        candidates[j] = scan_feature(features[j]);
      });
    } else {
      for (std::size_t j = 0; j < features.size(); ++j) {
        candidates[j] = scan_feature(features[j]);
      }
    }

    // Fixed-order argmin reduction over the per-feature slots.
    int best_feature = -1;
    std::size_t best_bin = 0;
    double best_gain = params_.min_split_gain;
    for (std::size_t j = 0; j < features.size(); ++j) {
      if (candidates[j].valid && candidates[j].gain > best_gain) {
        best_gain = candidates[j].gain;
        best_feature = static_cast<int>(features[j]);
        best_bin = candidates[j].bin;
      }
    }

    if (best_feature < 0) {
      node.value = leaf_value;
      continue;
    }

    // Partition rows in place: codes <= best_bin go left.
    const auto f = static_cast<std::size_t>(best_feature);
    auto mid_it = std::partition(
        order.begin() + static_cast<long>(item.lo),
        order.begin() + static_cast<long>(item.hi),
        [&](std::size_t r) { return binned.code(r, f) <= best_bin; });
    const auto mid = static_cast<std::size_t>(mid_it - order.begin());
    if (mid == item.lo || mid == item.hi) {
      node.value = leaf_value;  // degenerate split (shouldn't happen)
      continue;
    }

    node.feature = best_feature;
    node.threshold = binned.threshold(f, best_bin);
    node.split_bin = static_cast<int>(best_bin);
    node.left = static_cast<int>(tree.nodes.size());
    node.right = node.left + 1;
    importance_[f] += best_gain;
    const int left = node.left;
    const int right = node.right;
    tree.nodes.push_back({});
    tree.nodes.push_back({});
    stack.push_back({left, item.lo, mid, item.depth + 1});
    stack.push_back({right, mid, item.hi, item.depth + 1});
  }
  IOTAX_OBS_COUNT("gbt.hist_scans", hist_scans);
  return tree;
}

void GradientBoostedTrees::fit(const data::MatrixView& x,
                               std::span<const double> y) {
  fit_impl(x, y, data::MatrixView(), {}, nullptr);
}

void GradientBoostedTrees::fit_binned(const data::MatrixView& x,
                                      std::span<const double> y,
                                      const BinnedMatrix& binned) {
  if (binned.rows() != x.rows() || binned.cols() != x.cols()) {
    throw std::invalid_argument(
        "GradientBoostedTrees::fit_binned: binned view shape mismatch");
  }
  fit_impl(x, y, data::MatrixView(), {}, &binned);
}

void GradientBoostedTrees::fit_eval(const data::MatrixView& x,
                                    std::span<const double> y,
                                    const data::MatrixView& x_val,
                                    std::span<const double> y_val) {
  fit_impl(x, y, x_val, y_val, nullptr);
}

void GradientBoostedTrees::fit_impl(const data::MatrixView& x,
                                    std::span<const double> y,
                                    const data::MatrixView& x_val,
                                    std::span<const double> y_val,
                                    const BinnedMatrix* prebinned) {
  if (x_val.rows() != y_val.size()) {
    throw std::invalid_argument(
        "GradientBoostedTrees::fit_eval: validation size mismatch");
  }
  if (x.rows() != y.size()) {
    throw std::invalid_argument("GradientBoostedTrees::fit: size mismatch");
  }
  if (x.rows() < 2) {
    throw std::invalid_argument("GradientBoostedTrees::fit: need >= 2 rows");
  }
  IOTAX_TRACE_SPAN("gbt.fit");
  obs::span_arg("rows", static_cast<double>(x.rows()));
  obs::span_arg("cols", static_cast<double>(x.cols()));
  n_features_ = x.cols();
  importance_.assign(n_features_, 0.0);
  trees_.clear();
  packed_.clear();
  base_score_ = params_.loss == GbtLoss::kQuantile
                    ? stats::quantile(std::vector<double>(y.begin(), y.end()),
                                      params_.quantile_alpha)
                    : stats::mean(y);

  std::optional<BinnedMatrix> own_binned;
  if (prebinned == nullptr) {
    own_binned.emplace(params_.per_feature_bins.empty()
                           ? BinnedMatrix(x, params_.max_bins)
                           : BinnedMatrix(x, params_.per_feature_bins));
  }
  const BinnedMatrix& binned = prebinned != nullptr ? *prebinned : *own_binned;
  util::Rng rng(params_.seed);

  std::vector<double> preds(x.rows(), base_score_);
  std::vector<double> grad(x.rows());
  std::vector<std::size_t> all_rows(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) all_rows[i] = i;
  std::vector<std::size_t> all_features(n_features_);
  for (std::size_t i = 0; i < n_features_; ++i) all_features[i] = i;

  const auto n_sub = std::max<std::size_t>(
      2, static_cast<std::size_t>(params_.subsample *
                                  static_cast<double>(x.rows())));
  const auto n_col = std::max<std::size_t>(
      1, static_cast<std::size_t>(params_.colsample *
                                  static_cast<double>(n_features_)));

  // Early-stopping bookkeeping. Validation rows are encoded into the
  // training bins once up front, so the per-tree evaluation walks codes
  // instead of gathering raw rows (one strided read per value total,
  // rather than per tree).
  const bool use_eval =
      params_.early_stopping_rounds > 0 && x_val.rows() > 0;
  std::vector<double> val_preds(x_val.rows(), base_score_);
  EncodedCodes val_codes;
  if (use_eval) {
    val_codes = binned.encode_all_ooc(x_val);
  }
  double best_val_rmse = std::numeric_limits<double>::infinity();
  std::size_t best_round = 0;
  std::size_t rounds_since_best = 0;

  for (std::size_t t = 0; t < params_.n_estimators; ++t) {
    const std::int64_t tree_t0 = obs::now_ns_if_enabled();
    if (params_.loss == GbtLoss::kQuantile) {
      // Pinball-loss gradient: -alpha below the prediction target,
      // (1-alpha) above; unit hessian (function-space gradient descent).
      const double a = params_.quantile_alpha;
      for (std::size_t i = 0; i < x.rows(); ++i) {
        grad[i] = preds[i] >= y[i] ? (1.0 - a) : -a;
      }
    } else {
      for (std::size_t i = 0; i < x.rows(); ++i) grad[i] = preds[i] - y[i];
    }

    std::vector<std::size_t> rows =
        params_.subsample < 1.0 ? rng.sample_without_replacement(x.rows(),
                                                                 n_sub)
                                : all_rows;
    std::vector<std::size_t> features =
        params_.colsample < 1.0
            ? rng.sample_without_replacement(n_features_, n_col)
            : all_features;

    Tree tree = build_tree(binned, rows, features, grad);
    // Pack the new tree immediately: the per-round prediction updates
    // below run on the SoA layout, and packed_ stays in lockstep with
    // trees_ (re-synced only if early stopping trims the tail). Trees
    // built here always carry fit-time split bins.
    append_packed(tree, /*with_codes=*/true);
    const std::size_t t_idx = packed_.n_trees() - 1;
    // Update running predictions on all rows (per-index slots, so the
    // result is identical at any thread count). Routing by bin codes
    // gives the same leaf as routing the raw row by thresholds — see
    // Tree::predict_codes — without re-reading the (possibly strided,
    // table-backed) view once per tree.
    util::parallel_for_chunks(
        x.rows(),
        [&](std::size_t lo, std::size_t hi) {
          packed_.predict_codes_tree(t_idx, binned.row_codes(lo).data(),
                                     n_features_, hi - lo,
                                     preds.data() + lo);
        },
        512);
    IOTAX_OBS_COUNT("gbt.trees", 1);
    if (tree_t0 != 0) {
      IOTAX_OBS_HIST_MS("gbt.tree_ms",
                        static_cast<double>(obs::now_ns_if_enabled() - tree_t0) /
                            1e6);
    }
    if (use_eval) {
      // Batch-update the validation predictions, then accumulate the
      // squared error in row order — the same values and the same FP
      // sum sequence as the seed's fused loop, just two passes.
      packed_.predict_codes_tree(t_idx, val_codes.data(), n_features_,
                                 x_val.rows(), val_preds.data());
      double sq = 0.0;
      for (std::size_t i = 0; i < x_val.rows(); ++i) {
        const double d = val_preds[i] - y_val[i];
        sq += d * d;
      }
      const double rmse = std::sqrt(sq / static_cast<double>(x_val.rows()));
      if (rmse < best_val_rmse - 1e-12) {
        best_val_rmse = rmse;
        best_round = t + 1;
        rounds_since_best = 0;
      } else if (++rounds_since_best >= params_.early_stopping_rounds) {
        trees_.push_back(std::move(tree));
        break;
      }
    }
    trees_.push_back(std::move(tree));
  }
  if (use_eval && best_round < trees_.size()) {
    trees_.resize(best_round);  // keep the best-validation prefix
  }
  obs::span_arg("trees", static_cast<double>(trees_.size()));
  fitted_ = true;
  has_split_bins_ = true;
  if (packed_.n_trees() != trees_.size()) rebuild_packed();
}

void GradientBoostedTrees::fit_continue(const data::MatrixView& x,
                                        std::span<const double> y,
                                        std::size_t extra_rounds) {
  if (!fitted_) {
    throw std::logic_error("GradientBoostedTrees::fit_continue: not fitted");
  }
  if (x.rows() != y.size()) {
    throw std::invalid_argument(
        "GradientBoostedTrees::fit_continue: size mismatch");
  }
  if (x.rows() < 2) {
    throw std::invalid_argument(
        "GradientBoostedTrees::fit_continue: need >= 2 rows");
  }
  if (x.cols() != n_features_) {
    throw std::invalid_argument(
        "GradientBoostedTrees::fit_continue: feature count mismatch");
  }
  if (extra_rounds == 0) return;
  IOTAX_TRACE_SPAN("gbt.fit_continue");
  obs::span_arg("rows", static_cast<double>(x.rows()));
  obs::span_arg("extra_rounds", static_cast<double>(extra_rounds));

  // Re-bin under the model's own budgets. For the matrix fit() saw this
  // reproduces the fit-time bins bit-exactly (binning is a deterministic
  // function of the column values), which is what makes warm == cold.
  const BinnedMatrix binned = params_.per_feature_bins.empty()
                                  ? BinnedMatrix(x, params_.max_bins)
                                  : BinnedMatrix(x, params_.per_feature_bins);

  // Replay the running predictions through the public predict() path:
  // base score first, then leaf values per row in ascending tree order —
  // the exact FP sequence the cold fit's per-round updates built up.
  // Routing by raw thresholds reaches the same leaves code routing did,
  // so this also works on loaded checkpoints that carry no fit-time
  // codes.
  std::vector<double> preds = predict(x);

  // Replay the subsample/colsample RNG stream past the existing rounds:
  // cold round t draws (rows, features) after t earlier rounds' draws,
  // so warm round trees_.size() + k must see the same stream position.
  util::Rng rng(params_.seed);
  const auto n_sub = std::max<std::size_t>(
      2, static_cast<std::size_t>(params_.subsample *
                                  static_cast<double>(x.rows())));
  const auto n_col = std::max<std::size_t>(
      1, static_cast<std::size_t>(params_.colsample *
                                  static_cast<double>(n_features_)));
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    if (params_.subsample < 1.0) {
      rng.sample_without_replacement(x.rows(), n_sub);
    }
    if (params_.colsample < 1.0) {
      rng.sample_without_replacement(n_features_, n_col);
    }
  }

  std::vector<double> grad(x.rows());
  std::vector<std::size_t> all_rows(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) all_rows[i] = i;
  std::vector<std::size_t> all_features(n_features_);
  for (std::size_t i = 0; i < n_features_; ++i) all_features[i] = i;

  // New trees land in a codes-only scratch forest for the per-round
  // prediction updates: the model's packed_ may hold loaded trees
  // without split bins, and PackedForest rejects code traversal unless
  // every tree carries them.
  kernels::PackedForest fresh;
  for (std::size_t k = 0; k < extra_rounds; ++k) {
    const std::int64_t tree_t0 = obs::now_ns_if_enabled();
    if (params_.loss == GbtLoss::kQuantile) {
      const double a = params_.quantile_alpha;
      for (std::size_t i = 0; i < x.rows(); ++i) {
        grad[i] = preds[i] >= y[i] ? (1.0 - a) : -a;
      }
    } else {
      for (std::size_t i = 0; i < x.rows(); ++i) grad[i] = preds[i] - y[i];
    }

    std::vector<std::size_t> rows =
        params_.subsample < 1.0 ? rng.sample_without_replacement(x.rows(),
                                                                 n_sub)
                                : all_rows;
    std::vector<std::size_t> features =
        params_.colsample < 1.0
            ? rng.sample_without_replacement(n_features_, n_col)
            : all_features;

    Tree tree = build_tree(binned, rows, features, grad);
    pack_tree(fresh, tree, /*with_codes=*/true);
    const std::size_t local_t = fresh.n_trees() - 1;
    util::parallel_for_chunks(
        x.rows(),
        [&](std::size_t lo, std::size_t hi) {
          fresh.predict_codes_tree(local_t, binned.row_codes(lo).data(),
                                   n_features_, hi - lo, preds.data() + lo);
        },
        512);
    IOTAX_OBS_COUNT("gbt.trees", 1);
    if (tree_t0 != 0) {
      IOTAX_OBS_HIST_MS("gbt.tree_ms",
                        static_cast<double>(obs::now_ns_if_enabled() - tree_t0) /
                            1e6);
    }
    trees_.push_back(std::move(tree));
  }
  obs::span_arg("trees", static_cast<double>(trees_.size()));
  // A continued forest has trees_.size() rounds total; advancing the
  // recorded count keeps name()/save() agreeing with a cold fit of that
  // length.
  params_.n_estimators = trees_.size();

  // The appended trees' split bins index this call's binning; any
  // earlier trees' bins index theirs. No single binning covers the
  // forest now, so code traversal is dropped and the whole forest is
  // relaid out for raw-value routing only.
  has_split_bins_ = false;
  rebuild_packed();
}

void GradientBoostedTrees::pack_tree(kernels::PackedForest& forest,
                                     const Tree& tree, bool with_codes) {
  std::vector<kernels::PackedForest::NodeDesc> descs;
  descs.reserve(tree.nodes.size());
  for (const auto& n : tree.nodes) {
    descs.push_back(
        {n.feature, n.threshold, n.split_bin, n.left, n.right, n.value});
  }
  forest.add_tree(descs, with_codes);
}

void GradientBoostedTrees::append_packed(const Tree& tree, bool with_codes) {
  pack_tree(packed_, tree, with_codes);
}

void GradientBoostedTrees::rebuild_packed() {
  packed_.clear();
  for (const auto& tree : trees_) append_packed(tree, has_split_bins_);
}

std::vector<double> GradientBoostedTrees::predict(
    const data::MatrixView& x) const {
  if (!fitted_) {
    throw std::logic_error("GradientBoostedTrees::predict: not fitted");
  }
  if (x.cols() != n_features_) {
    throw std::invalid_argument(
        "GradientBoostedTrees::predict: feature count mismatch");
  }
  IOTAX_TRACE_SPAN("gbt.predict");
  std::vector<double> out(x.rows(), base_score_);
  util::parallel_for_chunks(
      x.rows(),
      [&](std::size_t lo, std::size_t hi) {
        // Materialize the chunk as a dense block (the view may be
        // strided or row-mapped) and descend all trees on it at once.
        // The leaf per row — and the add order across trees — is
        // exactly the seed's per-row Tree::predict loop.
        std::vector<double> scratch;  // untouched when rows are spans
        std::vector<double> block((hi - lo) * n_features_);
        for (std::size_t i = lo; i < hi; ++i) {
          const auto row = x.row(i, scratch);
          std::copy(row.begin(), row.end(),
                    block.begin() +
                        static_cast<long>((i - lo) * n_features_));
        }
        packed_.predict_values(block.data(), n_features_, hi - lo,
                               out.data() + lo);
      },
      256);
  return out;
}

std::vector<double> GradientBoostedTrees::predict_codes(
    std::span<const std::uint16_t> codes) const {
  if (!fitted_) {
    throw std::logic_error("GradientBoostedTrees::predict_codes: not fitted");
  }
  if (!has_split_bins_) {
    throw std::logic_error(
        "GradientBoostedTrees::predict_codes: model has no fit-time split "
        "bins (loaded from disk?) — use predict()");
  }
  if (n_features_ == 0 || codes.size() % n_features_ != 0) {
    throw std::invalid_argument(
        "GradientBoostedTrees::predict_codes: code count not a multiple of "
        "the feature count");
  }
  IOTAX_TRACE_SPAN("gbt.predict");
  const std::size_t n = codes.size() / n_features_;
  std::vector<double> out(n, base_score_);
  util::parallel_for_chunks(
      n,
      [&](std::size_t lo, std::size_t hi) {
        packed_.predict_codes(codes.data() + lo * n_features_, n_features_,
                              hi - lo, out.data() + lo);
      },
      256);
  return out;
}

std::vector<double> GradientBoostedTrees::predict_codes_prefix(
    std::span<const std::uint16_t> codes, std::size_t n_trees) const {
  if (!fitted_) {
    throw std::logic_error("GradientBoostedTrees::predict_codes: not fitted");
  }
  if (!has_split_bins_) {
    throw std::logic_error(
        "GradientBoostedTrees::predict_codes: model has no fit-time split "
        "bins (loaded from disk?) — use predict()");
  }
  if (n_features_ == 0 || codes.size() % n_features_ != 0) {
    throw std::invalid_argument(
        "GradientBoostedTrees::predict_codes: code count not a multiple of "
        "the feature count");
  }
  IOTAX_TRACE_SPAN("gbt.predict");
  const std::size_t n = codes.size() / n_features_;
  std::vector<double> out(n, base_score_);
  util::parallel_for_chunks(
      n,
      [&](std::size_t lo, std::size_t hi) {
        packed_.predict_codes_prefix(n_trees, codes.data() + lo * n_features_,
                                     n_features_, hi - lo, out.data() + lo);
      },
      256);
  return out;
}

std::string GradientBoostedTrees::name() const {
  return "gbt[trees=" + std::to_string(params_.n_estimators) +
         ",depth=" + std::to_string(params_.max_depth) + "]";
}

std::vector<double> GradientBoostedTrees::feature_importances() const {
  std::vector<double> imp = importance_;
  double total = 0.0;
  for (double v : imp) total += v;
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}


namespace {

void expect_token(std::istream& in, const char* expected) {
  std::string token;
  in >> token;
  if (token != expected) {
    throw std::runtime_error(std::string("GradientBoostedTrees::load: "
                                         "expected '") +
                             expected + "', got '" + token + "'");
  }
}

}  // namespace

void GradientBoostedTrees::save(std::ostream& out) const {
  if (!fitted_) {
    throw std::logic_error("GradientBoostedTrees::save: not fitted");
  }
  out.precision(17);
  out << "iotax-gbt 1\n";
  out << "params " << params_.n_estimators << ' ' << params_.max_depth << ' '
      << params_.learning_rate << ' ' << params_.reg_lambda << ' '
      << params_.min_child_weight << ' ' << params_.min_split_gain << ' '
      << params_.subsample << ' ' << params_.colsample << ' '
      << params_.max_bins << ' ' << params_.seed << ' '
      << (params_.loss == GbtLoss::kQuantile ? 1 : 0) << ' '
      << params_.quantile_alpha << '\n';
  out << "base_score " << base_score_ << '\n';
  out << "n_features " << n_features_ << '\n';
  out << "importance";
  for (const double v : importance_) out << ' ' << v;
  out << '\n';
  out << "trees " << trees_.size() << '\n';
  for (const auto& tree : trees_) {
    out << "tree " << tree.nodes.size() << '\n';
    for (const auto& n : tree.nodes) {
      out << n.feature << ' ' << n.threshold << ' ' << n.left << ' '
          << n.right << ' ' << n.value << '\n';
    }
  }
  if (!out) throw std::runtime_error("GradientBoostedTrees::save: stream");
}

GradientBoostedTrees GradientBoostedTrees::load(std::istream& in) {
  expect_token(in, "iotax-gbt");
  int version = 0;
  in >> version;
  if (version != 1) {
    throw std::runtime_error("GradientBoostedTrees::load: bad version");
  }
  GbtParams params;
  expect_token(in, "params");
  int loss = 0;
  in >> params.n_estimators >> params.max_depth >> params.learning_rate >>
      params.reg_lambda >> params.min_child_weight >>
      params.min_split_gain >> params.subsample >> params.colsample >>
      params.max_bins >> params.seed >> loss >> params.quantile_alpha;
  params.loss = loss != 0 ? GbtLoss::kQuantile : GbtLoss::kSquaredError;
  GradientBoostedTrees model(params);
  expect_token(in, "base_score");
  in >> model.base_score_;
  expect_token(in, "n_features");
  in >> model.n_features_;
  expect_token(in, "importance");
  model.importance_.resize(model.n_features_);
  for (auto& v : model.importance_) in >> v;
  expect_token(in, "trees");
  std::size_t n_trees = 0;
  in >> n_trees;
  model.trees_.resize(n_trees);
  for (auto& tree : model.trees_) {
    expect_token(in, "tree");
    std::size_t n_nodes = 0;
    in >> n_nodes;
    tree.nodes.resize(n_nodes);
    for (auto& n : tree.nodes) {
      in >> n.feature >> n.threshold >> n.left >> n.right >> n.value;
      if (n.feature >= static_cast<int>(model.n_features_) ||
          n.left >= static_cast<int>(n_nodes) ||
          n.right >= static_cast<int>(n_nodes)) {
        throw std::runtime_error(
            "GradientBoostedTrees::load: node out of range");
      }
    }
  }
  if (!in) throw std::runtime_error("GradientBoostedTrees::load: truncated");
  model.fitted_ = true;
  // Loaded trees carry thresholds but no fit-time split bins
  // (has_split_bins_ stays false): the packed layout supports value
  // traversal only, and predict_codes keeps throwing.
  model.rebuild_packed();
  return model;
}

}  // namespace iotax::ml
