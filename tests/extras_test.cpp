// Tests for the later-added library features: GBT early stopping, the
// tree-based uncertainty estimator, report serialization, model
// interpretation, and the CLI argument parser.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "src/cli/args.hpp"
#include "src/ml/uq_gbt.hpp"
#include "src/taxonomy/interpret.hpp"
#include "src/taxonomy/report_io.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

Xy noisy_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(n, 3);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    d.x(i, 0) = a;
    d.x(i, 1) = b;
    d.x(i, 2) = rng.normal();
    d.y[i] = std::sin(a) + 0.4 * b + rng.normal(0.0, 0.3);
  }
  return d;
}

TEST(EarlyStopping, StopsBeforeBudgetOnNoisyData) {
  const auto train = noisy_data(600, 1);
  const auto val = noisy_data(300, 2);
  ml::GbtParams p;
  p.n_estimators = 400;
  p.max_depth = 6;
  p.learning_rate = 0.3;  // aggressive: overfits quickly
  p.early_stopping_rounds = 10;
  ml::GradientBoostedTrees model(p);
  model.fit_eval(train.x, train.y, val.x, val.y);
  EXPECT_LT(model.n_trees(), 400u);
  EXPECT_GT(model.n_trees(), 0u);
}

TEST(EarlyStopping, ImprovesGeneralisationOverFullBudget) {
  const auto train = noisy_data(600, 3);
  const auto val = noisy_data(300, 4);
  const auto test = noisy_data(500, 5);
  ml::GbtParams p;
  p.n_estimators = 400;
  p.max_depth = 6;
  p.learning_rate = 0.3;
  ml::GradientBoostedTrees full(p);
  full.fit(train.x, train.y);
  p.early_stopping_rounds = 15;
  ml::GradientBoostedTrees stopped(p);
  stopped.fit_eval(train.x, train.y, val.x, val.y);
  EXPECT_LE(ml::rmse_log(test.y, stopped.predict(test.x)),
            ml::rmse_log(test.y, full.predict(test.x)) * 1.02);
}

TEST(EarlyStopping, DisabledBehavesLikeFit) {
  const auto train = noisy_data(300, 6);
  const auto val = noisy_data(100, 7);
  ml::GbtParams p;
  p.n_estimators = 30;
  ml::GradientBoostedTrees a(p);
  a.fit(train.x, train.y);
  ml::GradientBoostedTrees b(p);
  b.fit_eval(train.x, train.y, val.x, val.y);  // rounds == 0: no stopping
  EXPECT_EQ(a.n_trees(), b.n_trees());
  const auto pa = a.predict(val.x);
  const auto pb = b.predict(val.x);
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(EarlyStopping, MismatchedValidationRejected) {
  const auto train = noisy_data(100, 8);
  ml::GradientBoostedTrees model;
  data::Matrix x_val(5, 3);
  std::vector<double> y_val(4);
  EXPECT_THROW(model.fit_eval(train.x, train.y, x_val, y_val),
               std::invalid_argument);
}

TEST(GbtUncertainty, RecoversHeteroscedasticNoise) {
  util::Rng rng(9);
  const std::size_t n = 6000;
  data::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    const double sigma = x(i, 0) > 0.0 ? 0.5 : 0.05;
    y[i] = x(i, 0) + rng.normal(0.0, sigma);
  }
  ml::GbtParams mean_p;
  mean_p.n_estimators = 60;
  mean_p.max_depth = 3;
  ml::GbtParams var_p;
  var_p.n_estimators = 60;
  var_p.max_depth = 3;
  ml::GbtUncertainty uq(mean_p, var_p);
  uq.fit(x, y);
  data::Matrix probe(2, 1);
  probe(0, 0) = 0.6;   // noisy side
  probe(1, 0) = -0.6;  // quiet side
  const auto pred = uq.predict_dist(probe);
  EXPECT_GT(pred.variance[0], 4.0 * pred.variance[1]);
  // Variance magnitude roughly right on the noisy side (sigma^2 = 0.25).
  EXPECT_GT(pred.variance[0], 0.05);
  EXPECT_LT(pred.variance[0], 1.0);
}

TEST(GbtUncertainty, PredictBeforeFitThrows) {
  ml::GbtUncertainty uq({}, {});
  EXPECT_THROW(uq.predict_dist(data::Matrix(1, 1)), std::logic_error);
}

taxonomy::TaxonomyReport sample_report() {
  taxonomy::TaxonomyReport r;
  r.system = "unit-test";
  r.n_jobs = 1234;
  r.baseline_error = 0.04;
  r.app_bound.median_abs_error = 0.025;
  r.app_bound.mean_abs_error = 0.031;
  r.app_bound.stats.n_sets = 42;
  r.app_bound.stats.n_duplicate_jobs = 300;
  r.app_bound.stats.duplicate_fraction = 0.243;
  r.tuned_error = 0.027;
  r.tuned_params.n_estimators = 64;
  r.tuned_params.max_depth = 9;
  r.system_bound.err_app_only = 0.027;
  r.system_bound.err_with_time = 0.02;
  r.system_bound.reduction_frac = 0.26;
  r.lmt_enriched_error = 0.021;
  taxonomy::OodResult ood;
  ood.eu_threshold = 0.1;
  ood.frac_ood = 0.007;
  ood.error_share_ood = 0.024;
  ood.error_ratio = 3.4;
  r.ood = ood;
  r.noise.median_abs_error = 0.016;
  r.noise.sigma_log10 = 0.024;
  r.noise.band68_pct = 5.68;
  r.noise.band95_pct = 11.4;
  r.noise.t_fit.df = 14.0;
  r.noise.n_sets = 99;
  r.share_app = 0.37;
  r.share_app_realized = 0.32;
  r.share_system = 0.12;
  r.share_system_realized = 0.1;
  r.share_ood = 0.02;
  r.share_aleatory = 0.4;
  r.share_unexplained = 0.09;
  return r;
}

TEST(ReportIo, RoundTripAllFields) {
  const auto report = sample_report();
  const auto path =
      (std::filesystem::temp_directory_path() / "iotax_report.csv").string();
  taxonomy::write_report_csv(path, report);
  const auto back = taxonomy::read_report_csv(path);
  EXPECT_EQ(back.system, "unit-test");
  EXPECT_EQ(back.n_jobs, 1234u);
  EXPECT_DOUBLE_EQ(back.baseline_error, report.baseline_error);
  EXPECT_DOUBLE_EQ(back.app_bound.median_abs_error,
                   report.app_bound.median_abs_error);
  EXPECT_EQ(back.app_bound.stats.n_sets, 42u);
  EXPECT_DOUBLE_EQ(back.tuned_error, report.tuned_error);
  EXPECT_EQ(back.tuned_params.n_estimators, 64u);
  ASSERT_TRUE(back.lmt_enriched_error.has_value());
  EXPECT_DOUBLE_EQ(*back.lmt_enriched_error, 0.021);
  ASSERT_TRUE(back.ood.has_value());
  EXPECT_DOUBLE_EQ(back.ood->error_ratio, 3.4);
  EXPECT_DOUBLE_EQ(back.noise.band68_pct, 5.68);
  EXPECT_DOUBLE_EQ(back.share_unexplained, 0.09);
  std::filesystem::remove(path);
}

TEST(ReportIo, OptionalFieldsStayUnset) {
  auto report = sample_report();
  report.lmt_enriched_error.reset();
  report.ood.reset();
  const auto path =
      (std::filesystem::temp_directory_path() / "iotax_report2.csv").string();
  taxonomy::write_report_csv(path, report);
  const auto back = taxonomy::read_report_csv(path);
  EXPECT_FALSE(back.lmt_enriched_error.has_value());
  EXPECT_FALSE(back.ood.has_value());
  std::filesystem::remove(path);
}

TEST(ReportIo, SummaryLineContainsKeyNumbers) {
  const auto line = taxonomy::summary_line(sample_report());
  EXPECT_NE(line.find("unit-test"), std::string::npos);
  EXPECT_NE(line.find("noise=40.0%"), std::string::npos);
  EXPECT_NE(line.find("unexplained=9.0%"), std::string::npos);
}

TEST(Interpret, RankedImportancesSortedAndNamed) {
  const auto d = noisy_data(800, 10);
  ml::GbtParams model_params;
  model_params.n_estimators = 40;
  model_params.max_depth = 4;
  ml::GradientBoostedTrees model(model_params);
  model.fit(d.x, d.y);
  const auto ranked = taxonomy::ranked_importances(
      model, {"POSIX_BYTES_READ", "POSIX_SEQ_READS", "LMT_OSS_CPU_MEAN"});
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_GE(ranked[0].importance, ranked[1].importance);
  EXPECT_GE(ranked[1].importance, ranked[2].importance);
  EXPECT_THROW(taxonomy::ranked_importances(model, {"just-one"}),
               std::invalid_argument);
}

TEST(Interpret, GroupsByPrefix) {
  const std::vector<taxonomy::FeatureImportance> feats = {
      {"POSIX_BYTES_READ", 0.3},   {"POSIX_SEQ_READS", 0.2},
      {"LMT_OSS_CPU_MEAN", 0.25},  {"COBALT_START_TIME", 0.15},
      {"POSIX_OPENS", 0.1},
  };
  const auto groups = taxonomy::grouped_importances(feats);
  double total = 0.0;
  bool has_storage = false;
  bool has_time = false;
  for (const auto& g : groups) {
    total += g.importance;
    if (g.group == "storage (LMT)") {
      has_storage = true;
      EXPECT_DOUBLE_EQ(g.importance, 0.25);
    }
    if (g.group == "time") {
      has_time = true;
      EXPECT_DOUBLE_EQ(g.importance, 0.15);
    }
  }
  EXPECT_TRUE(has_storage);
  EXPECT_TRUE(has_time);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Interpret, RenderContainsTopFeature) {
  const std::vector<taxonomy::FeatureImportance> feats = {
      {"POSIX_BYTES_READ", 0.9}, {"POSIX_OPENS", 0.1}};
  const auto text = taxonomy::render_importance_report(feats, 1);
  EXPECT_NE(text.find("POSIX_BYTES_READ"), std::string::npos);
  EXPECT_NE(text.find("90.00%"), std::string::npos);
}

TEST(CliArgs, ParsesPositionalFlagsAndValues) {
  const char* argv[] = {"simulate", "--preset", "theta", "--verbose",
                        "--seed", "42", "extra"};
  const cli::Args args(7, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "simulate");
  EXPECT_EQ(args.positional()[1], "extra");
  EXPECT_EQ(args.get("preset"), "theta");
  EXPECT_EQ(args.get_int_or("seed", 0), 42);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
}

TEST(CliArgs, FlagHasNoValue) {
  const char* argv[] = {"--lenient", "--out", "dir"};
  const cli::Args args(3, argv);
  EXPECT_THROW(args.get("lenient"), std::invalid_argument);
  EXPECT_EQ(args.get_or("lenient", "dflt"), "dflt");
  EXPECT_EQ(args.get("out"), "dir");
}

TEST(CliArgs, DefaultsAndNumericParsing) {
  const char* argv[] = {"--window", "2.5"};
  const cli::Args args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double_or("window", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double_or("missing", 1.0), 1.0);
  EXPECT_EQ(args.get_int_or("missing", 9), 9);
}

TEST(CliArgs, UnknownOptionDetected) {
  const char* argv[] = {"--sedd", "42"};
  const cli::Args args(2, argv);
  EXPECT_THROW(args.check_allowed({"seed"}), std::invalid_argument);
  EXPECT_NO_THROW(args.check_allowed({"sedd"}));
}

}  // namespace
}  // namespace iotax
