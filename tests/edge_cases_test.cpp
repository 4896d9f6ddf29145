// Edge-case hardening across modules: the inputs a production deployment
// will eventually feed the library.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/data/split.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/kmeans.hpp"
#include "src/sim/weather.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/histogram.hpp"
#include "src/taxonomy/duplicates.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

TEST(EdgeCases, SingleElementStatistics) {
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(stats::mean(one), 42.0);
  EXPECT_DOUBLE_EQ(stats::median(one), 42.0);
  EXPECT_DOUBLE_EQ(stats::quantile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(stats::quantile(one, 1.0), 42.0);
  EXPECT_DOUBLE_EQ(stats::mad(one), 0.0);
  const auto s = stats::summarize(one);
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(EdgeCases, AllEqualSamples) {
  const std::vector<double> flat(100, 3.0);
  EXPECT_DOUBLE_EQ(stats::variance(flat), 0.0);
  EXPECT_DOUBLE_EQ(stats::mad(flat), 0.0);
  // Correlation of a constant with anything is defined as 0 here.
  std::vector<double> ramp(100);
  for (std::size_t i = 0; i < 100; ++i) ramp[i] = static_cast<double>(i);
  EXPECT_DOUBLE_EQ(stats::correlation(flat, ramp), 0.0);
}

TEST(EdgeCases, GbtOnConstantTarget) {
  data::Matrix x(50, 2);
  util::Rng rng(1);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
  }
  const std::vector<double> y(50, 2.5);
  ml::GbtParams model_params;
  model_params.n_estimators = 10;
  ml::GradientBoostedTrees model(model_params);
  model.fit(x, y);
  for (const double p : model.predict(x)) EXPECT_NEAR(p, 2.5, 1e-9);
  // Importances are all zero (no split ever gains) and stay normalisable.
  for (const double v : model.feature_importances()) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(EdgeCases, GbtOnConstantFeatures) {
  data::Matrix x(60, 3, 1.0);  // every feature constant
  std::vector<double> y(60);
  util::Rng rng(2);
  for (auto& v : y) v = rng.normal(5.0, 1.0);
  ml::GbtParams model_params;
  model_params.n_estimators = 5;
  ml::GradientBoostedTrees model(model_params);
  model.fit(x, y);
  const auto pred = model.predict(x);
  // Nothing to split on: every prediction equals the target mean.
  for (const double p : pred) EXPECT_NEAR(p, stats::mean(y), 1e-9);
}

TEST(EdgeCases, DuplicateSetsOnAllUniqueAndAllSame) {
  data::Dataset unique;
  unique.system_name = "u";
  data::Table t1({"f"});
  for (std::size_t i = 0; i < 10; ++i) {
    t1.add_row(std::vector<double>{static_cast<double>(i)});
    data::JobMeta m;
    m.job_id = i;
    m.app_id = i;
    m.config_id = i;
    m.end_time = 1.0;
    unique.meta.push_back(m);
    unique.target.push_back(0.0);
  }
  unique.features = t1;
  EXPECT_TRUE(taxonomy::find_duplicate_sets(unique).empty());

  data::Dataset same = unique;
  for (auto& m : same.meta) {
    m.app_id = 1;
    m.config_id = 1;
  }
  const auto sets = taxonomy::find_duplicate_sets(same);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].rows.size(), 10u);
}

TEST(EdgeCases, WeatherSingleEpochNoDegradations) {
  sim::WeatherParams params;
  params.horizon = 86400.0;
  params.n_epochs = 1;
  params.degradations_per_year = 0.0;
  params.seasonal_amplitude = 0.0;
  util::Rng rng(3);
  const sim::GlobalWeather w(params, rng);
  EXPECT_TRUE(w.epoch_boundaries().empty());
  // Offset is a single constant over the whole horizon.
  EXPECT_DOUBLE_EQ(w.log_offset(0.0), w.log_offset(86000.0));
  EXPECT_FALSE(w.degraded(1000.0));
}

TEST(EdgeCases, HistogramSingleBin) {
  stats::Histogram h(0.0, 1.0, 1);
  h.add(0.5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_DOUBLE_EQ(h.density(0), 3.0 / 3.0);
}

TEST(EdgeCases, SplitsOnTinyDatasets) {
  util::Rng rng(4);
  const auto s = data::random_split(1, 0.5, 0.25, rng);
  EXPECT_EQ(s.train.size() + s.val.size() + s.test.size(), 1u);
  const auto s0 = data::random_split(0, 0.5, 0.25, rng);
  EXPECT_TRUE(s0.train.empty());
  EXPECT_TRUE(s0.test.empty());
}

TEST(EdgeCases, KMeansWithKEqualToRows) {
  data::Matrix x(4, 1);
  for (std::size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i * 10);
  ml::KMeansParams params;
  params.k = 4;
  ml::KMeans km(params);
  km.fit(x);
  // Each point gets its own cluster; inertia ~ 0.
  EXPECT_NEAR(km.inertia(), 0.0, 1e-9);
  EXPECT_THROW(
      [] {
        data::Matrix tiny(2, 1);
        ml::KMeansParams p;
        p.k = 4;
        ml::KMeans bad(p);
        bad.fit(tiny);
      }(),
      std::invalid_argument);
}

TEST(EdgeCases, RngExtremeRanges) {
  util::Rng rng(5);
  EXPECT_EQ(rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                            std::numeric_limits<std::int64_t>::min()),
            std::numeric_limits<std::int64_t>::min());
  // Full-range draws don't hang or throw.
  for (int i = 0; i < 10; ++i) {
    (void)rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::int64_t>::max());
  }
}

TEST(EdgeCases, WeightedQuantileSingleNonZeroWeight) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> w = {0.0, 1.0, 0.0};
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(stats::weighted_quantile(xs, w, q), 2.0);
  }
}

}  // namespace
}  // namespace iotax
