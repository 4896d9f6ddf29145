#include <gtest/gtest.h>

#include <cmath>

#include "src/data/matrix.hpp"
#include "src/ml/binning.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/linear.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/model.hpp"
#include "src/ml/nas.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/search.hpp"
#include "src/stats/descriptive.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

TEST(Metrics, LogErrorsAreSignedDifferences) {
  const std::vector<double> yt = {1.0, 2.0};
  const std::vector<double> yp = {1.5, 1.5};
  const auto e = ml::log_errors(yt, yp);
  EXPECT_DOUBLE_EQ(e[0], 0.5);
  EXPECT_DOUBLE_EQ(e[1], -0.5);
}

TEST(Metrics, MedianAbsLogError) {
  const std::vector<double> yt = {1.0, 1.0, 1.0};
  const std::vector<double> yp = {1.1, 0.8, 1.0};
  EXPECT_NEAR(ml::median_abs_log_error(yt, yp), 0.1, 1e-12);
}

TEST(Metrics, SymmetricOverUnderEstimate) {
  // Over- and under-estimating by the same ratio gives the same error.
  const std::vector<double> yt = {3.0};
  const std::vector<double> over = {3.0 + std::log10(1.25)};
  const std::vector<double> under = {3.0 - std::log10(1.25)};
  EXPECT_NEAR(ml::mean_abs_log_error(yt, over),
              ml::mean_abs_log_error(yt, under), 1e-12);
}

TEST(Metrics, PercentConversionRoundTrip) {
  for (double pct : {-25.0, -5.0, 0.0, 10.01, 40.0}) {
    EXPECT_NEAR(ml::log_error_to_percent(ml::percent_to_log_error(pct)), pct,
                1e-9);
  }
  EXPECT_THROW(ml::percent_to_log_error(-100.0), std::invalid_argument);
}

TEST(Metrics, RejectsSizeMismatch) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(ml::log_errors(a, b), std::invalid_argument);
}

TEST(MeanRegressor, PredictsTrainMean) {
  data::Matrix x(4, 1);
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  ml::MeanRegressor m;
  m.fit(x, y);
  const auto p = m.predict(x);
  for (double v : p) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(MeanRegressor, ThrowsBeforeFit) {
  ml::MeanRegressor m;
  EXPECT_THROW(m.predict(data::Matrix(1, 1)), std::logic_error);
}

TEST(Binning, CodesRespectOrder) {
  data::Matrix x(100, 1);
  for (std::size_t i = 0; i < 100; ++i) x(i, 0) = static_cast<double>(i);
  ml::BinnedMatrix binned(x, 8);
  EXPECT_LE(binned.n_bins(0), 8u);
  EXPECT_GE(binned.n_bins(0), 2u);
  // Codes must be monotone in the raw value.
  for (std::size_t i = 1; i < 100; ++i) {
    EXPECT_LE(binned.code(i - 1, 0), binned.code(i, 0));
  }
}

TEST(Binning, ConstantColumnGetsSingleBin) {
  data::Matrix x(10, 1, 3.0);
  ml::BinnedMatrix binned(x, 16);
  EXPECT_EQ(binned.n_bins(0), 1u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(binned.code(i, 0), 0);
}

TEST(Binning, EncodeMatchesTrainingCodes) {
  util::Rng rng(1);
  data::Matrix x(200, 1);
  for (std::size_t i = 0; i < 200; ++i) x(i, 0) = rng.normal();
  ml::BinnedMatrix binned(x, 32);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(binned.encode(0, x(i, 0)), binned.code(i, 0));
  }
}

TEST(Binning, ThresholdSplitsConsistently) {
  data::Matrix x(100, 1);
  for (std::size_t i = 0; i < 100; ++i) x(i, 0) = static_cast<double>(i);
  ml::BinnedMatrix binned(x, 8);
  const std::size_t b = 2;
  const double thr = binned.threshold(0, b);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(x(i, 0) <= thr, binned.code(i, 0) <= b);
  }
}

// Synthetic regression problem: y = 2*x0 - x1 + 0.5*x0*x1 + noise.
struct Problem {
  data::Matrix x_train{0, 0};
  std::vector<double> y_train;
  data::Matrix x_test{0, 0};
  std::vector<double> y_test;
};

Problem make_problem(std::size_t n_train, std::size_t n_test, double noise,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  Problem p;
  const auto gen = [&rng, noise](std::size_t n, data::Matrix* x,
                                 std::vector<double>* y) {
    *x = data::Matrix(n, 3);
    y->resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = rng.uniform(-2.0, 2.0);
      const double b = rng.uniform(-2.0, 2.0);
      const double c = rng.uniform(-1.0, 1.0);  // irrelevant feature
      (*x)(i, 0) = a;
      (*x)(i, 1) = b;
      (*x)(i, 2) = c;
      (*y)[i] = 2.0 * a - b + 0.5 * a * b + rng.normal(0.0, noise);
    }
  };
  gen(n_train, &p.x_train, &p.y_train);
  gen(n_test, &p.x_test, &p.y_test);
  return p;
}

TEST(Linear, RecoversLinearRelationship) {
  util::Rng rng(2);
  data::Matrix x(500, 2);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    x(i, 1) = rng.uniform(-1.0, 1.0);
    y[i] = 3.0 + 2.0 * x(i, 0) - x(i, 1);
  }
  ml::LinearRegressor lin(1e-6, /*log_transform=*/false);
  lin.fit(x, y);
  const auto p = lin.predict(x);
  EXPECT_LT(ml::rmse_log(y, p), 0.02);
}

TEST(Linear, LogTransformHandlesCounterScales) {
  // y depends on log of a counter spanning 8 orders of magnitude; the
  // default preprocessing makes this learnable by a linear model.
  util::Rng rng(31);
  data::Matrix x(800, 1);
  std::vector<double> y(800);
  for (std::size_t i = 0; i < 800; ++i) {
    const double counter = std::pow(10.0, rng.uniform(1.0, 9.0));
    x(i, 0) = counter;
    y[i] = 0.5 * std::log10(1.0 + counter);
  }
  ml::LinearRegressor lin(1e-6);
  lin.fit(x, y);
  EXPECT_LT(ml::rmse_log(y, lin.predict(x)), 0.02);
}

TEST(Linear, HandlesCollinearFeatures) {
  data::Matrix x(50, 2);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = static_cast<double>(i);  // perfectly collinear
    y[i] = static_cast<double>(i);
  }
  ml::LinearRegressor lin(1.0);
  EXPECT_NO_THROW(lin.fit(x, y));  // ridge keeps the solve well-posed
}

TEST(Gbt, ParamsValidate) {
  ml::GbtParams p;
  p.learning_rate = 0.0;
  EXPECT_THROW(ml::GradientBoostedTrees{p}, std::invalid_argument);
  p = ml::GbtParams{};
  p.subsample = 1.5;
  EXPECT_THROW(ml::GradientBoostedTrees{p}, std::invalid_argument);
}

TEST(Gbt, LearnsNonlinearInteraction) {
  const auto prob = make_problem(2000, 500, 0.05, 3);
  ml::GbtParams params;
  params.n_estimators = 120;
  params.max_depth = 4;
  params.learning_rate = 0.15;
  ml::GradientBoostedTrees gbt(params);
  gbt.fit(prob.x_train, prob.y_train);
  const auto pred = gbt.predict(prob.x_test);
  EXPECT_LT(ml::rmse_log(prob.y_test, pred), 0.18);
}

TEST(Gbt, BeatsLinearOnInteractions) {
  const auto prob = make_problem(2000, 500, 0.05, 4);
  ml::GbtParams gbt_params;
  gbt_params.n_estimators = 120;
  gbt_params.max_depth = 4;
  gbt_params.learning_rate = 0.15;
  ml::GradientBoostedTrees gbt(gbt_params);
  gbt.fit(prob.x_train, prob.y_train);
  ml::LinearRegressor lin(1.0);
  lin.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_test, gbt.predict(prob.x_test)),
            ml::rmse_log(prob.y_test, lin.predict(prob.x_test)));
}

TEST(Gbt, DeterministicForSameSeed) {
  const auto prob = make_problem(500, 100, 0.05, 5);
  ml::GbtParams params;
  params.n_estimators = 20;
  params.subsample = 0.7;
  params.colsample = 0.7;
  ml::GradientBoostedTrees a(params);
  ml::GradientBoostedTrees b(params);
  a.fit(prob.x_train, prob.y_train);
  b.fit(prob.x_train, prob.y_train);
  const auto pa = a.predict(prob.x_test);
  const auto pb = b.predict(prob.x_test);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(Gbt, MoreTreesReduceTrainError) {
  const auto prob = make_problem(1000, 100, 0.02, 6);
  ml::GbtParams small_params;
  small_params.n_estimators = 5;
  small_params.max_depth = 3;
  ml::GradientBoostedTrees small(small_params);
  ml::GbtParams large_params;
  large_params.n_estimators = 80;
  large_params.max_depth = 3;
  ml::GradientBoostedTrees large(large_params);
  small.fit(prob.x_train, prob.y_train);
  large.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_train, large.predict(prob.x_train)),
            ml::rmse_log(prob.y_train, small.predict(prob.x_train)));
}

TEST(Gbt, IrrelevantFeatureGetsLowImportance) {
  const auto prob = make_problem(2000, 100, 0.02, 7);
  ml::GbtParams gbt_params;
  gbt_params.n_estimators = 60;
  gbt_params.max_depth = 4;
  ml::GradientBoostedTrees gbt(gbt_params);
  gbt.fit(prob.x_train, prob.y_train);
  const auto imp = gbt.feature_importances();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[1], imp[2]);
  EXPECT_LT(imp[2], 0.05);
  EXPECT_NEAR(imp[0] + imp[1] + imp[2], 1.0, 1e-9);
}

TEST(Gbt, SubsampleAndColsampleStillLearn) {
  const auto prob = make_problem(2000, 400, 0.05, 8);
  ml::GbtParams gbt_params;
  gbt_params.n_estimators = 150;
  gbt_params.max_depth = 4;
  gbt_params.learning_rate = 0.1;
  gbt_params.subsample = 0.6;
  gbt_params.colsample = 0.7;
  ml::GradientBoostedTrees gbt(gbt_params);
  gbt.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_test, gbt.predict(prob.x_test)), 0.25);
}

TEST(Gbt, PredictRejectsWrongWidth) {
  const auto prob = make_problem(200, 10, 0.05, 9);
  ml::GbtParams gbt_params;
  gbt_params.n_estimators = 5;
  ml::GradientBoostedTrees gbt(gbt_params);
  gbt.fit(prob.x_train, prob.y_train);
  EXPECT_THROW(gbt.predict(data::Matrix(3, 7)), std::invalid_argument);
  ml::GradientBoostedTrees unfitted;
  EXPECT_THROW(unfitted.predict(prob.x_test), std::logic_error);
}

TEST(Mlp, ParamsValidate) {
  ml::MlpParams p;
  p.dropout = 1.0;
  EXPECT_THROW(ml::Mlp{p}, std::invalid_argument);
  p = ml::MlpParams{};
  p.hidden = {0};
  EXPECT_THROW(ml::Mlp{p}, std::invalid_argument);
}

TEST(Mlp, LearnsNonlinearFunction) {
  const auto prob = make_problem(2000, 500, 0.05, 10);
  ml::MlpParams params;
  params.hidden = {32, 32};
  params.epochs = 60;
  params.learning_rate = 3e-3;
  ml::Mlp mlp(params);
  mlp.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_test, mlp.predict(prob.x_test)), 0.25);
}

TEST(Mlp, DeterministicForSameSeed) {
  const auto prob = make_problem(300, 50, 0.05, 11);
  ml::MlpParams params;
  params.hidden = {16};
  params.epochs = 5;
  ml::Mlp a(params);
  ml::Mlp b(params);
  a.fit(prob.x_train, prob.y_train);
  b.fit(prob.x_train, prob.y_train);
  const auto pa = a.predict(prob.x_test);
  const auto pb = b.predict(prob.x_test);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(Mlp, DropoutStillLearns) {
  const auto prob = make_problem(2000, 300, 0.05, 12);
  ml::MlpParams params;
  params.hidden = {48, 48};
  params.epochs = 120;
  params.learning_rate = 3e-3;
  params.dropout = 0.1;
  ml::Mlp mlp(params);
  mlp.fit(prob.x_train, prob.y_train);
  EXPECT_LT(ml::rmse_log(prob.y_test, mlp.predict(prob.x_test)), 0.4);
}

TEST(Mlp, NllHeadEstimatesNoiseLevel) {
  // Heteroscedastic data: noise depends on x0's sign.
  util::Rng rng(13);
  const std::size_t n = 4000;
  data::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    const double sigma = x(i, 0) > 0.0 ? 0.5 : 0.05;
    y[i] = x(i, 0) + rng.normal(0.0, sigma);
  }
  ml::MlpParams params;
  params.hidden = {32, 32};
  params.epochs = 80;
  params.learning_rate = 3e-3;
  params.nll_head = true;
  ml::Mlp mlp(params);
  mlp.fit(x, y);

  data::Matrix probe(2, 1);
  probe(0, 0) = 0.7;
  probe(1, 0) = -0.7;
  const auto pred = mlp.predict_dist(probe);
  // The noisy side should get clearly larger predicted variance.
  EXPECT_GT(pred.variance[0], 3.0 * pred.variance[1]);
}

TEST(Mlp, PredictDistRequiresNllHead) {
  const auto prob = make_problem(100, 10, 0.05, 14);
  ml::MlpParams params;
  params.epochs = 1;
  ml::Mlp mlp(params);
  mlp.fit(prob.x_train, prob.y_train);
  EXPECT_THROW(mlp.predict_dist(prob.x_test), std::logic_error);
}

TEST(Search, GridSearchFindsReasonableConfig) {
  const auto prob = make_problem(800, 300, 0.05, 15);
  ml::GbtGrid grid;
  grid.n_estimators = {5, 40};
  grid.max_depth = {2, 5};
  grid.subsample = {1.0};
  grid.colsample = {1.0};
  std::size_t calls = 0;
  const auto res = ml::grid_search(
      grid, prob.x_train, prob.y_train, prob.x_test, prob.y_test,
      [&calls](const ml::SearchPoint&) { ++calls; });
  EXPECT_EQ(res.evaluated.size(), 4u);
  EXPECT_EQ(calls, 4u);
  // Best should be the larger model on this nonlinear problem.
  EXPECT_EQ(res.best.params.n_estimators, 40u);
  for (const auto& pt : res.evaluated) {
    EXPECT_GE(pt.val_error, res.best.val_error);
  }
}

TEST(Search, RandomSearchSamplesFromGrid) {
  const auto prob = make_problem(400, 100, 0.05, 16);
  ml::GbtGrid grid;
  grid.n_estimators = {5, 10};
  grid.max_depth = {2, 3};
  util::Rng rng(17);
  const auto res = ml::random_search(grid, 6, prob.x_train, prob.y_train,
                                     prob.x_test, prob.y_test, rng);
  EXPECT_EQ(res.evaluated.size(), 6u);
  for (const auto& pt : res.evaluated) {
    EXPECT_TRUE(pt.params.n_estimators == 5 || pt.params.n_estimators == 10);
  }
}

TEST(Nas, SearchImprovesOverGenerations) {
  const auto prob = make_problem(800, 300, 0.05, 18);
  ml::NasParams nas;
  nas.population = 6;
  nas.generations = 3;
  nas.epochs = 12;
  nas.widths = {8, 16, 32};
  nas.seed = 19;
  const auto res = ml::nas_search(nas, prob.x_train, prob.y_train, prob.x_test,
                                  prob.y_test);
  EXPECT_EQ(res.history.size(), 6u + 2u * 3u);  // pop + 2 gens x 3 children
  // Best-so-far curve is non-increasing and the flagged candidates match.
  double best = std::numeric_limits<double>::infinity();
  for (const auto& cand : res.history) {
    EXPECT_EQ(cand.improved_best, cand.val_error < best);
    best = std::min(best, cand.val_error);
  }
  EXPECT_DOUBLE_EQ(best, res.best.val_error);
  EXPECT_LT(res.best.val_error, 0.4);
}

TEST(Nas, RejectsBadParams) {
  const auto prob = make_problem(50, 10, 0.05, 20);
  ml::NasParams nas;
  nas.population = 1;
  EXPECT_THROW(ml::nas_search(nas, prob.x_train, prob.y_train, prob.x_test,
                              prob.y_test),
               std::invalid_argument);
}

TEST(Ensemble, EpistemicHigherOutOfDistribution) {
  // Train on x in [-1, 1]; probe far outside.
  util::Rng rng(21);
  const std::size_t n = 1500;
  data::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    y[i] = std::sin(2.0 * x(i, 0)) + rng.normal(0.0, 0.05);
  }
  ml::EnsembleParams params;
  params.size = 5;
  params.epochs = 30;
  params.space.widths = {16, 32};
  ml::DeepEnsemble ens(params);
  ens.fit(x, y);

  data::Matrix probe(2, 1);
  probe(0, 0) = 0.3;   // in-distribution
  probe(1, 0) = 30.0;  // far out
  const auto pred = ens.predict_uncertainty(probe);
  EXPECT_GT(pred.epistemic[1], 5.0 * pred.epistemic[0]);
}

TEST(Ensemble, AleatoryTracksNoise) {
  util::Rng rng(22);
  const std::size_t n = 3000;
  data::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    const double sigma = x(i, 0) > 0.0 ? 0.4 : 0.05;
    y[i] = x(i, 0) + rng.normal(0.0, sigma);
  }
  ml::EnsembleParams params;
  params.size = 4;
  params.epochs = 40;
  ml::DeepEnsemble ens(params);
  ens.fit(x, y);
  data::Matrix probe(2, 1);
  probe(0, 0) = 0.6;
  probe(1, 0) = -0.6;
  const auto pred = ens.predict_uncertainty(probe);
  EXPECT_GT(pred.aleatory[0], 2.0 * pred.aleatory[1]);
}

TEST(Ensemble, UsesNasHistoryArchitectures) {
  const auto prob = make_problem(300, 50, 0.05, 23);
  std::vector<ml::NasCandidate> history(3);
  history[0].params.hidden = {24};
  history[0].val_error = 0.1;
  history[1].params.hidden = {8};
  history[1].val_error = 0.3;
  history[2].params.hidden = {40, 40};
  history[2].val_error = 0.2;
  ml::EnsembleParams params;
  params.size = 2;
  params.epochs = 2;
  params.nas_history = history;
  ml::DeepEnsemble ens(params);
  ens.fit(prob.x_train, prob.y_train);
  // Members seeded from the two best candidates (by val error).
  EXPECT_EQ(ens.member(0).params().hidden, std::vector<std::size_t>{24});
  EXPECT_EQ(ens.member(1).params().hidden,
            (std::vector<std::size_t>{40, 40}));
}

TEST(Ensemble, RejectsTooSmall) {
  ml::EnsembleParams params;
  params.size = 1;
  EXPECT_THROW(ml::DeepEnsemble{params}, std::invalid_argument);
}

}  // namespace
}  // namespace iotax
