#include <gtest/gtest.h>

#include <cmath>

#include "src/data/split.hpp"
#include "src/ml/gbt.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/fitting.hpp"
#include "src/taxonomy/drift.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

TEST(TwoSampleKs, ZeroForIdenticalSamples) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(stats::two_sample_ks(a, a), 0.0, 1e-12);
}

TEST(TwoSampleKs, OneForDisjointSamples) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 11.0};
  EXPECT_NEAR(stats::two_sample_ks(a, b), 1.0, 1e-12);
}

TEST(TwoSampleKs, DetectsShift) {
  util::Rng rng(1);
  std::vector<double> a(2000);
  std::vector<double> b(2000);
  std::vector<double> c(2000);
  for (auto& v : a) v = rng.normal(0.0, 1.0);
  for (auto& v : b) v = rng.normal(0.0, 1.0);
  for (auto& v : c) v = rng.normal(1.0, 1.0);
  EXPECT_LT(stats::two_sample_ks(a, b), 0.06);
  EXPECT_GT(stats::two_sample_ks(a, c), 0.3);
}

TEST(TwoSampleKs, RejectsEmpty) {
  const std::vector<double> a = {1.0};
  EXPECT_THROW(stats::two_sample_ks(a, {}), std::invalid_argument);
}

// Synthetic error stream: 10 healthy weeks, then degradation.
struct Stream {
  std::vector<double> times;
  std::vector<double> errors;
};

Stream make_stream(double healthy_sigma, double late_sigma,
                   double late_bias, std::uint64_t seed) {
  util::Rng rng(seed);
  Stream s;
  const double week = 86400.0 * 7.0;
  for (int w = 0; w < 20; ++w) {
    for (int j = 0; j < 80; ++j) {
      s.times.push_back(w * week + j * 3600.0);
      const bool late = w >= 10;
      const double sigma = late ? late_sigma : healthy_sigma;
      const double bias = late ? late_bias : 0.0;
      s.errors.push_back(bias + rng.normal(0.0, sigma));
    }
  }
  return s;
}

TEST(DriftMonitor, QuietOnStationaryErrors) {
  const auto s = make_stream(0.03, 0.03, 0.0, 2);
  const auto report = taxonomy::monitor_drift(s.times, s.errors);
  EXPECT_EQ(report.n_alarms, 0u);
  EXPECT_EQ(report.first_alarm, report.windows.size());
}

TEST(DriftMonitor, AlarmsOnErrorInflation) {
  const auto s = make_stream(0.03, 0.09, 0.0, 3);
  const auto report = taxonomy::monitor_drift(s.times, s.errors);
  EXPECT_GT(report.n_alarms, 5u);
  // First alarm lands at or shortly after the change (window 10; the
  // report indexes post-reference windows, reference = 4 -> index ~6).
  EXPECT_GE(report.first_alarm, 5u);
  EXPECT_LE(report.first_alarm, 7u);
}

TEST(DriftMonitor, AlarmsOnBiasViaKs) {
  // Same spread, shifted bias: ratio of medians of |err| catches some of
  // it, KS catches the distribution change robustly.
  const auto s = make_stream(0.03, 0.03, 0.08, 4);
  const auto report = taxonomy::monitor_drift(s.times, s.errors);
  EXPECT_GT(report.n_alarms, 5u);
}

TEST(DriftMonitor, SmallWindowsNeverAlarm) {
  auto s = make_stream(0.03, 0.30, 0.3, 5);
  taxonomy::DriftParams params;
  params.min_jobs = 1000;  // every window is "too small"
  const auto report = taxonomy::monitor_drift(s.times, s.errors, params);
  EXPECT_EQ(report.n_alarms, 0u);
}

TEST(DriftMonitor, RejectsBadInput) {
  const std::vector<double> t = {1.0, 0.5};
  const std::vector<double> e = {0.0, 0.0};
  EXPECT_THROW(taxonomy::monitor_drift(t, e), std::invalid_argument);
  const std::vector<double> t2 = {1.0};
  EXPECT_THROW(taxonomy::monitor_drift(t2, e), std::invalid_argument);
  EXPECT_THROW(taxonomy::monitor_drift({}, {}), std::invalid_argument);
}

TEST(DriftMonitor, RequiresDataBeyondReference) {
  const std::vector<double> t = {0.0, 1.0, 2.0};
  const std::vector<double> e = {0.1, 0.1, 0.1};
  taxonomy::DriftParams params;
  params.window_seconds = 1e9;  // everything in one window
  EXPECT_THROW(taxonomy::monitor_drift(t, e, params), std::invalid_argument);
}

TEST(DriftMonitor, RenderShowsAlarms) {
  const auto s = make_stream(0.03, 0.12, 0.0, 6);
  const auto report = taxonomy::monitor_drift(s.times, s.errors);
  const auto text = taxonomy::render_drift_report(report);
  EXPECT_NE(text.find("ALARM"), std::string::npos);
  EXPECT_NE(text.find("reference median"), std::string::npos);
}

TEST(DriftMonitor, EndToEndOnSimulatedDeployment) {
  // Train on the pre-cutoff period of a simulated system, deploy, and
  // let the monitor watch the deployment error stream. With novel apps
  // appearing after the cutoff, some windows should alarm.
  auto cfg = sim::tiny_system(31);
  cfg.workload.n_jobs = 3000;
  cfg.catalog.novel_app_frac = 0.25;
  cfg.catalog.novel_shift = 2.0;
  const auto res = sim::simulate(cfg);
  const auto& ds = res.dataset;

  const auto train_rows = ds.rows_in_window(0.0, res.train_cutoff_time);
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix};
  ml::GbtParams model_params;
  model_params.n_estimators = 60;
  model_params.max_depth = 6;
  ml::GradientBoostedTrees model(model_params);
  model.fit(taxonomy::feature_matrix(ds, feats, train_rows),
            taxonomy::targets(ds, train_rows));

  // Error stream across the whole timeline (held-in errors small, post
  // errors larger).
  const auto pred = model.predict(taxonomy::feature_matrix(ds, feats));
  std::vector<double> times(ds.size());
  std::vector<double> errors(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    times[i] = ds.meta[i].start_time;
    errors[i] = pred[i] - ds.target[i];
  }
  taxonomy::DriftParams params;
  params.window_seconds = 86400.0 * 5.0;
  params.reference_windows = 3;
  params.error_ratio_alarm = 1.3;
  params.min_jobs = 20;
  const auto report = taxonomy::monitor_drift(times, errors, params);
  EXPECT_FALSE(report.windows.empty());
  // The stream includes training rows early (low error) and novel apps
  // late (high error): expect at least one alarm in the late windows.
  EXPECT_GE(report.n_alarms, 1u);
}

}  // namespace
}  // namespace iotax
