// Model persistence: saved models must restore bit-identical predictions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/linear.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/registry.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

Xy make_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(n, 5);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 5; ++c) d.x(i, c) = rng.uniform(-3.0, 3.0);
    d.y[i] = std::sin(d.x(i, 0)) + 0.3 * d.x(i, 1) * d.x(i, 2) +
             rng.normal(0.0, 0.05);
  }
  return d;
}

TEST(GbtSerialize, RoundTripPredictionsIdentical) {
  const auto train = make_data(800, 1);
  const auto probe = make_data(200, 2);
  ml::GbtParams p;
  p.n_estimators = 40;
  p.max_depth = 5;
  p.subsample = 0.8;
  ml::GradientBoostedTrees model(p);
  model.fit(train.x, train.y);

  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::GradientBoostedTrees::load(buf);
  EXPECT_EQ(loaded.n_trees(), model.n_trees());
  EXPECT_EQ(loaded.params().n_estimators, p.n_estimators);
  const auto a = model.predict(probe.x);
  const auto b = loaded.predict(probe.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  EXPECT_EQ(loaded.feature_importances(), model.feature_importances());
}

TEST(GbtSerialize, SaveUnfittedThrows) {
  ml::GradientBoostedTrees model;
  std::stringstream buf;
  EXPECT_THROW(model.save(buf), std::logic_error);
}

TEST(GbtSerialize, LoadRejectsGarbage) {
  std::stringstream buf("not a model at all");
  EXPECT_THROW(ml::GradientBoostedTrees::load(buf), std::runtime_error);
}

TEST(GbtSerialize, LoadRejectsWrongVersion) {
  std::stringstream buf("iotax-gbt 9\n");
  EXPECT_THROW(ml::GradientBoostedTrees::load(buf), std::runtime_error);
}

TEST(GbtSerialize, LoadDetectsOutOfRangeNodes) {
  const auto train = make_data(200, 3);
  ml::GbtParams model_params;
  model_params.n_estimators = 3;
  model_params.max_depth = 3;
  ml::GradientBoostedTrees model(model_params);
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  auto text = buf.str();
  // Corrupt a feature index to something huge.
  const auto pos = text.find("\n0 ");
  if (pos != std::string::npos) {
    text.replace(pos, 3, "\n99 ");
    std::stringstream corrupted(text);
    EXPECT_THROW(ml::GradientBoostedTrees::load(corrupted),
                 std::runtime_error);
  }
}

TEST(MlpSerialize, RoundTripPredictionsIdentical) {
  const auto train = make_data(600, 4);
  const auto probe = make_data(100, 5);
  ml::MlpParams p;
  p.hidden = {24, 16};
  p.epochs = 10;
  ml::Mlp model(p);
  model.fit(train.x, train.y);

  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::Mlp::load(buf);
  const auto a = model.predict(probe.x);
  const auto b = loaded.predict(probe.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  EXPECT_EQ(loaded.params().hidden, p.hidden);
}

TEST(MlpSerialize, NllHeadSurvivesRoundTrip) {
  const auto train = make_data(600, 6);
  const auto probe = make_data(50, 7);
  ml::MlpParams p;
  p.hidden = {16};
  p.epochs = 10;
  p.nll_head = true;
  ml::Mlp model(p);
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::Mlp::load(buf);
  const auto a = model.predict_dist(probe.x);
  const auto b = loaded.predict_dist(probe.x);
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.mean[i], b.mean[i]);
    ASSERT_DOUBLE_EQ(a.variance[i], b.variance[i]);
  }
}

TEST(MlpSerialize, LoadRejectsGarbage) {
  std::stringstream buf("iotax-mlp 2\n");
  EXPECT_THROW(ml::Mlp::load(buf), std::runtime_error);
  std::stringstream buf2("nonsense");
  EXPECT_THROW(ml::Mlp::load(buf2), std::runtime_error);
}

TEST(MlpSerialize, SaveUnfittedThrows) {
  ml::Mlp model;
  std::stringstream buf;
  EXPECT_THROW(model.save(buf), std::logic_error);
}

TEST(LinearSerialize, RoundTripPredictionsIdentical) {
  const auto train = make_data(400, 8);
  const auto probe = make_data(80, 9);
  ml::LinearRegressor model(0.5, /*log_transform=*/true);
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::LinearRegressor::load(buf);
  EXPECT_EQ(loaded.coefficients(), model.coefficients());
  EXPECT_DOUBLE_EQ(loaded.intercept(), model.intercept());
  const auto a = model.predict(probe.x);
  const auto b = loaded.predict(probe.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(MeanSerialize, RoundTripPredictionsIdentical) {
  const auto train = make_data(100, 10);
  ml::MeanRegressor model;
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::MeanRegressor::load(buf);
  const auto a = model.predict(train.x);
  const auto b = loaded.predict(train.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(EnsembleSerialize, RoundTripUncertaintyIdentical) {
  const auto train = make_data(300, 11);
  const auto probe = make_data(60, 12);
  ml::EnsembleParams params;
  params.size = 3;
  params.epochs = 3;
  ml::DeepEnsemble model(params);
  model.fit(train.x, train.y);
  std::stringstream buf;
  model.save(buf);
  const auto loaded = ml::DeepEnsemble::load(buf);
  EXPECT_EQ(loaded.size(), model.size());
  const auto a = model.predict_uncertainty(probe.x);
  const auto b = loaded.predict_uncertainty(probe.x);
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.mean[i], b.mean[i]);
    ASSERT_DOUBLE_EQ(a.aleatory[i], b.aleatory[i]);
    ASSERT_DOUBLE_EQ(a.epistemic[i], b.epistemic[i]);
  }
}

// Regressor::load must dispatch on the magic token alone: a deployment
// that only knows "a saved model file" reloads any family.
TEST(UnifiedLoad, DispatchesOnMagicToken) {
  const auto train = make_data(300, 13);
  const auto probe = make_data(40, 14);

  const auto round_trip = [&](const ml::Regressor& model) {
    std::stringstream buf;
    model.save(buf);
    const auto loaded = ml::Regressor::load(buf);
    EXPECT_EQ(loaded->name(), model.name());
    const auto a = model.predict(probe.x);
    const auto b = loaded->predict(probe.x);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  };

  ml::MeanRegressor mean;
  mean.fit(train.x, train.y);
  round_trip(mean);

  ml::LinearRegressor linear;
  linear.fit(train.x, train.y);
  round_trip(linear);

  ml::GbtParams gbt_params;
  gbt_params.n_estimators = 5;
  gbt_params.max_depth = 3;
  ml::GradientBoostedTrees gbt(gbt_params);
  gbt.fit(train.x, train.y);
  round_trip(gbt);

  ml::MlpParams mp;
  mp.hidden = {8};
  mp.epochs = 3;
  ml::Mlp mlp(mp);
  mlp.fit(train.x, train.y);
  round_trip(mlp);
}

TEST(UnifiedLoad, RejectsUnknownHeaderAndUnseekableGarbage) {
  std::stringstream buf("iotax-frobnicator 1\n");
  EXPECT_THROW(ml::Regressor::load(buf), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW(ml::Regressor::load(empty), std::runtime_error);
}

// A bad checkpoint must say which file, what it found, and what would
// have been valid — the operator is three shell commands away from the
// fix only if the message carries all three.
TEST(UnifiedLoad, DiagnosticNamesSourceTokenAndKnownMagics) {
  std::stringstream buf("iotax-frobnicator 1\n");
  try {
    ml::Regressor::load(buf, "checkpoints/prod.gbt");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checkpoints/prod.gbt"), std::string::npos) << what;
    EXPECT_NE(what.find("iotax-frobnicator"), std::string::npos) << what;
    for (const auto& magic : ml::known_model_magics()) {
      EXPECT_NE(what.find(magic), std::string::npos) << what;
    }
  }
}

TEST(UnifiedLoad, EmptyStreamDiagnosticIsExplicit) {
  std::stringstream empty;
  try {
    ml::Regressor::load(empty, "empty.bin");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty.bin"), std::string::npos) << what;
    EXPECT_NE(what.find("known model magics"), std::string::npos) << what;
  }
}

TEST(UnifiedLoad, LoadRegressorFileReportsMissingPath) {
  try {
    ml::load_regressor_file("/no/such/dir/model.gbt");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/model.gbt"),
              std::string::npos);
  }
}

// --- make_regressor factory --------------------------------------------

TEST(Registry, BuildsEveryAdvertisedFamily) {
  const auto train = make_data(200, 15);
  // Shrink the expensive families so the test stays fast; an absent key
  // keeps the family's default.
  const std::map<std::string, std::string> params = {
      {"classifier", R"({"gbt": {"n_estimators": 5, "max_depth": 3}})"},
      {"ensemble", R"({"size": 2, "epochs": 2})"},
      {"gbt", R"({"n_estimators": 5, "max_depth": 3})"},
      {"mlp", R"({"hidden": [8], "epochs": 2})"},
  };
  // The classifier family only accepts 0/1 targets; binarize at the
  // median so the sweep exercises it like any other family.
  std::vector<double> sorted = train.y;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<double> binary(train.y.size());
  for (std::size_t i = 0; i < train.y.size(); ++i) {
    binary[i] = train.y[i] > median ? 1.0 : 0.0;
  }
  for (const auto& family : ml::regressor_names()) {
    const auto it = params.find(family);
    const auto model = ml::make_regressor(
        family, it != params.end() ? it->second : "{}");
    ASSERT_NE(model, nullptr) << family;
    const auto& y = family == "classifier" ? binary : train.y;
    model->fit(train.x, y);
    EXPECT_EQ(model->predict(train.x).size(), y.size()) << family;
  }
}

TEST(Registry, AppliesJsonParams) {
  const auto gbt = ml::make_regressor(
      "gbt", R"({"n_estimators": 7, "max_depth": 2, "seed": 3})");
  const auto train = make_data(200, 16);
  gbt->fit(train.x, train.y);
  EXPECT_NE(gbt->name().find("trees=7"), std::string::npos) << gbt->name();

  const auto mlp = ml::make_regressor(
      "mlp", R"({"hidden": [8, 4], "epochs": 2, "nll_head": true})");
  mlp->fit(train.x, train.y);
  const auto* as_mlp = dynamic_cast<const ml::Mlp*>(mlp.get());
  ASSERT_NE(as_mlp, nullptr);
  EXPECT_EQ(as_mlp->params().hidden, (std::vector<std::size_t>{8, 4}));
  EXPECT_TRUE(as_mlp->params().nll_head);
}

TEST(Registry, FactoryMatchesDirectConstruction) {
  const auto train = make_data(300, 17);
  const auto probe = make_data(50, 18);
  const auto from_factory = ml::make_regressor(
      "gbt", R"({"n_estimators": 10, "max_depth": 4, "seed": 5})");
  from_factory->fit(train.x, train.y);
  ml::GbtParams p;
  p.n_estimators = 10;
  p.max_depth = 4;
  p.seed = 5;
  ml::GradientBoostedTrees direct(p);
  direct.fit(train.x, train.y);
  const auto a = from_factory->predict(probe.x);
  const auto b = direct.predict(probe.x);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Registry, RejectsUnknownFamilyKeyAndMalformedJson) {
  EXPECT_THROW(ml::make_regressor("xgboost"), std::invalid_argument);
  // A typo must never silently train a default model.
  EXPECT_THROW(ml::make_regressor("gbt", R"({"n_estimator": 7})"),
               std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("mean", R"({"anything": 1})"),
               std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("gbt", "{not json"),
               std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("gbt", R"(["list"])"),
               std::invalid_argument);
  EXPECT_THROW(ml::make_regressor("gbt", R"({"n_estimators": -1})"),
               std::invalid_argument);
}

}  // namespace
}  // namespace iotax
