// Deployment drift monitor: the operational loop a production site would
// run around a deployed I/O model (extends §VIII / Fig. 1c into a tool).
//
//   1. train a throughput model on the first months of logs,
//   2. save it (models are persisted and reloaded, as in production),
//   3. replay the rest of the timeline as a deployment stream,
//   4. watch windowed error with the drift monitor and alarm on
//      degradation — here triggered by the novel applications the
//      simulator introduces after the training period.
//
//   $ ./example_drift_monitor
#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/ml/gbt.hpp"
#include "src/ml/metrics.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/drift.hpp"
#include "src/taxonomy/feature_sets.hpp"

int main() {
  using namespace iotax;
  auto cfg = sim::tiny_system(/*seed=*/57);
  cfg.workload.n_jobs = 3500;
  cfg.catalog.novel_app_frac = 0.20;
  cfg.catalog.novel_shift = 2.0;
  const auto res = sim::simulate(cfg);
  const auto& ds = res.dataset;

  // 1. Train on the first 3/4 of the pre-deployment period; the last
  //    quarter stays held out so the monitor's reference windows measure
  //    honest (non-memorised) error before deployment begins.
  const double train_end = 0.75 * res.train_cutoff_time;
  const auto train_rows = ds.rows_in_window(0.0, train_end);
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  ml::GbtParams gbt_params;
  gbt_params.n_estimators = 96;
  gbt_params.max_depth = 8;
  ml::GradientBoostedTrees model(gbt_params);
  model.fit(taxonomy::feature_matrix(ds, feats, train_rows),
            taxonomy::targets(ds, train_rows));

  // 2. Persist and reload through the family-agnostic Regressor API, as
  //    a deployment that only knows "a saved model file" would.
  std::stringstream stored;
  model.save(stored);
  const auto deployed = ml::Regressor::load(stored);
  std::printf("deployed model: %s (%.1f KiB serialized)\n",
              deployed->name().c_str(),
              static_cast<double>(stored.str().size()) / 1024.0);

  // 3. Replay the stream: held-out pre-deployment tail (the reference)
  //    followed by the deployment period.
  const auto stream_rows = ds.rows_in_window(train_end, 1e300);
  const auto pred = deployed->predict(
      taxonomy::feature_matrix(ds, feats, stream_rows));
  const auto y = taxonomy::targets(ds, stream_rows);
  std::vector<double> times(stream_rows.size());
  std::vector<double> errors(stream_rows.size());
  for (std::size_t i = 0; i < stream_rows.size(); ++i) {
    times[i] = ds.meta[stream_rows[i]].start_time;
    errors[i] = pred[i] - y[i];
  }
  std::printf("deployment stream: %zu jobs, overall median error %.2f%%\n\n",
              stream_rows.size(),
              ml::log_error_to_percent(
                  ml::median_abs_log_error(y, pred)));

  // 4. Watch it.
  taxonomy::DriftParams params;
  params.window_seconds = 86400.0 * 2.0;
  params.reference_windows = 4;  // the held-out pre-deployment tail
  params.error_ratio_alarm = 1.25;
  params.ks_alarm = 0.25;
  params.min_jobs = 15;
  const auto report = taxonomy::monitor_drift(times, errors, params);
  std::cout << taxonomy::render_drift_report(report);
  if (report.n_alarms > 0) {
    std::printf("\n-> model retraining recommended from window %zu on\n",
                report.first_alarm);
  }
  return 0;
}
