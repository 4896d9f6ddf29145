// Performance microbenchmarks (google-benchmark) for the library's hot
// kernels: simulation, log writing/parsing, feature binning, GBT, MLP
// and ensemble training, hyperparameter search, and prediction. The
// thread-parameterized benches (Arg = IOTAX_THREADS) track the
// wall-clock speedup of the deterministic thread-pool paths; the rest
// guard single-core throughput.
// Invoked with --kernels_ab, the binary skips google-benchmark and runs
// the scalar-vs-AVX2 A/B harness for three SIMD kernels (packed forest
// traversal, dense forward GEMM, dense backward) at IOTAX_THREADS 1 and
// 4, verifies the tiers agree bit for bit, and writes BENCH_kernels.json
// for tools/check_bench.cmake (KIND=kernels).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/ml/binning.hpp"
#include "src/ml/kernels/dispatch.hpp"
#include "src/ml/kernels/forest.hpp"
#include "src/ml/kernels/gemm.hpp"
#include "src/util/parallel.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/search.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/duplicates.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/telemetry/darshan_log.hpp"

namespace {

using namespace iotax;

// Pin the pool width for one thread-parameterized benchmark run.
class ScopedThreads {
 public:
  explicit ScopedThreads(long n) {
    ::setenv("IOTAX_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ScopedThreads() { ::unsetenv("IOTAX_THREADS"); }
};

const sim::SimulationResult& shared_result() {
  static const sim::SimulationResult res = [] {
    auto cfg = sim::tiny_system(71);
    cfg.workload.n_jobs = 2000;
    return sim::simulate(cfg);
  }();
  return res;
}

void BM_Simulate(benchmark::State& state) {
  auto cfg = sim::tiny_system(72);
  cfg.workload.n_jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto res = sim::simulate(cfg);
    benchmark::DoNotOptimize(res.dataset.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Simulate)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_WriteArchive(benchmark::State& state) {
  const auto& res = shared_result();
  for (auto _ : state) {
    std::ostringstream out;
    for (const auto& rec : res.records) telemetry::write_record(out, rec);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(res.records.size()));
}
BENCHMARK(BM_WriteArchive)->Unit(benchmark::kMillisecond);

void BM_ParseArchive(benchmark::State& state) {
  const auto& res = shared_result();
  std::ostringstream out;
  for (const auto& rec : res.records) telemetry::write_record(out, rec);
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    const auto parsed = telemetry::parse_archive(in);
    benchmark::DoNotOptimize(parsed.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(res.records.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(text.size()));
}
BENCHMARK(BM_ParseArchive)->Unit(benchmark::kMillisecond);

void BM_FeatureBinning(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  for (auto _ : state) {
    ml::BinnedMatrix binned(x, 64);
    benchmark::DoNotOptimize(binned.max_bins_used());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(x.rows() * x.cols()));
}
BENCHMARK(BM_FeatureBinning)->Unit(benchmark::kMillisecond);

void BM_GbtFit(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ml::GbtParams params;
  params.n_estimators = static_cast<std::size_t>(state.range(0));
  params.max_depth = 6;
  for (auto _ : state) {
    ml::GradientBoostedTrees model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.n_trees());
  }
}
BENCHMARK(BM_GbtFit)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_GbtPredict(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ml::GbtParams params;
  params.n_estimators = 64;
  ml::GradientBoostedTrees model(params);
  model.fit(x, y);
  for (auto _ : state) {
    const auto pred = model.predict(x);
    benchmark::DoNotOptimize(pred.back());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(x.rows()));
}
BENCHMARK(BM_GbtPredict)->Unit(benchmark::kMillisecond);

void BM_MlpFitEpoch(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ml::MlpParams params;
  params.hidden = {64, 64};
  params.epochs = 1;
  for (auto _ : state) {
    ml::Mlp model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.name().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(x.rows()));
}
BENCHMARK(BM_MlpFitEpoch)->Unit(benchmark::kMillisecond);

void BM_GbtFitThreaded(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ScopedThreads threads(state.range(0));
  ml::GbtParams params;
  params.n_estimators = 32;
  params.max_depth = 6;
  for (auto _ : state) {
    ml::GradientBoostedTrees model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.n_trees());
  }
}
BENCHMARK(BM_GbtFitThreaded)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EnsembleFit(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ScopedThreads threads(state.range(0));
  ml::EnsembleParams params;
  params.size = 4;
  params.epochs = 2;
  for (auto _ : state) {
    ml::DeepEnsemble ens(params);
    ens.fit(x, y);
    benchmark::DoNotOptimize(ens.size());
  }
}
BENCHMARK(BM_EnsembleFit)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GridSearch(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  // Front 3/4 train, back 1/4 validation — enough rows for a stable fit.
  const std::size_t split = x.rows() * 3 / 4;
  std::vector<std::size_t> train_rows(split);
  std::vector<std::size_t> val_rows(x.rows() - split);
  for (std::size_t i = 0; i < split; ++i) train_rows[i] = i;
  for (std::size_t i = split; i < x.rows(); ++i) val_rows[i - split] = i;
  const auto x_train = x.take_rows(train_rows);
  const auto x_val = x.take_rows(val_rows);
  const std::vector<double> y_train(y.begin(), y.begin() + split);
  const std::vector<double> y_val(y.begin() + split, y.end());
  ScopedThreads threads(state.range(0));
  ml::GbtGrid grid;
  grid.n_estimators = {8, 16};
  grid.max_depth = {3, 6};
  grid.subsample = {1.0};
  grid.colsample = {1.0};
  for (auto _ : state) {
    const auto res = ml::grid_search(grid, x_train, y_train, x_val, y_val);
    benchmark::DoNotOptimize(res.best.val_error);
  }
  state.SetItemsProcessed(state.iterations() * 4);  // grid points
}
BENCHMARK(BM_GridSearch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Observability overhead on the hottest instrumented path. Arg 0 runs
// with observability off (the shipping default: every IOTAX_TRACE_SPAN /
// IOTAX_OBS_* site collapses to a relaxed atomic load and branch); Arg 1
// runs with spans, counters and histograms live. Compare against
// BM_GbtFitThreaded/1: the disabled path must stay within 2%.
void BM_GbtFitObsOverhead(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  const auto x = taxonomy::feature_matrix(
      ds, {taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio});
  const auto y = taxonomy::targets(ds);
  ScopedThreads threads(1);
  const bool obs_on = state.range(0) != 0;
  obs::set_enabled(obs_on);
  ml::GbtParams params;
  params.n_estimators = 32;
  params.max_depth = 6;
  for (auto _ : state) {
    ml::GradientBoostedTrees model(params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.n_trees());
    if (obs_on) {
      // Keep the span log from growing without bound across iterations;
      // excluded from timing.
      state.PauseTiming();
      obs::TraceLog::global().reset();
      obs::MetricsRegistry::global().reset();
      state.ResumeTiming();
    }
  }
  obs::set_enabled(false);
  obs::TraceLog::global().reset();
  obs::MetricsRegistry::global().reset();
  state.SetLabel(obs_on ? "obs=on" : "obs=off");
}
BENCHMARK(BM_GbtFitObsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FindDuplicates(benchmark::State& state) {
  const auto& ds = shared_result().dataset;
  for (auto _ : state) {
    const auto sets = taxonomy::find_duplicate_sets(ds);
    benchmark::DoNotOptimize(sets.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(ds.size()));
}
BENCHMARK(BM_FindDuplicates)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Scalar-vs-AVX2 A/B harness (--kernels_ab).

namespace kernels_ab {

namespace kn = ml::kernels;

// Pin the kernel tier for one scope; restores "auto" on exit.
class ScopedKernels {
 public:
  explicit ScopedKernels(const char* policy) {
    ::setenv("IOTAX_KERNELS", policy, 1);
    kn::refresh();
  }
  ~ScopedKernels() {
    ::unsetenv("IOTAX_KERNELS");
    kn::refresh();
  }
};

constexpr std::size_t kRows = 50000;
constexpr std::size_t kBins = 64;
constexpr std::size_t kTrees = 64;
constexpr int kTreeDepth = 6;
constexpr std::size_t kTravFeatures = 16;
constexpr std::size_t kGemmRows = 4096;
constexpr std::size_t kGemmDim = 64;
constexpr std::size_t kBatchRows = 64;  // MLP mini-batch for the backward
constexpr int kReps = 5;

template <typename F>
double best_of_ms(F&& fn) {
  fn();  // warm-up (page in buffers, spin up the pool)
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    bench::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best * 1e3;
}

// --- packed forest code traversal, mirroring predict_codes ------------

struct TravWorkload {
  kn::PackedForest forest;
  std::vector<std::uint16_t> codes;  // row-major, kRows x kTravFeatures
};

TravWorkload make_trav_workload() {
  TravWorkload w;
  std::mt19937 rng(202);
  using NodeDesc = kn::PackedForest::NodeDesc;
  std::normal_distribution<double> leaf(0.0, 1.0);
  for (std::size_t t = 0; t < kTrees; ++t) {
    std::vector<NodeDesc> nodes;
    nodes.push_back({});
    std::vector<std::pair<int, int>> stack = {{0, kTreeDepth}};
    while (!stack.empty()) {
      const auto [idx, d] = stack.back();
      stack.pop_back();
      auto& n = nodes[static_cast<std::size_t>(idx)];
      if (d == 0 || rng() % 5 == 0) {
        n.feature = -1;
        n.split_bin = -1;
        n.left = n.right = -1;
        n.value = leaf(rng);
        continue;
      }
      n.feature = static_cast<int>(rng() % kTravFeatures);
      n.split_bin = static_cast<int>(rng() % (kBins - 1));
      n.threshold = static_cast<double>(n.split_bin);
      n.left = static_cast<int>(nodes.size());
      n.right = n.left + 1;
      nodes.push_back({});
      nodes.push_back({});
      stack.push_back({n.left, d - 1});
      stack.push_back({n.right, d - 1});
    }
    w.forest.add_tree(nodes, /*with_codes=*/true);
  }
  w.codes.resize(kRows * kTravFeatures);
  for (auto& c : w.codes) c = static_cast<std::uint16_t>(rng() % kBins);
  return w;
}

void run_trav(const TravWorkload& w, std::vector<double>* out) {
  out->assign(kRows, 0.0);
  util::parallel_for_chunks(
      kRows,
      [&](std::size_t lo, std::size_t hi) {
        w.forest.predict_codes(w.codes.data() + lo * kTravFeatures,
                               kTravFeatures, hi - lo, out->data() + lo);
      },
      /*grain=*/256);
}

// --- dense GEMM, mirroring Mlp::forward_batch --------------------------

struct GemmWorkload {
  std::vector<double> in;    // kGemmRows x kGemmDim
  std::vector<double> w;     // kGemmDim x kGemmDim
  std::vector<double> bias;  // kGemmDim
};

GemmWorkload make_gemm_workload() {
  GemmWorkload w;
  std::mt19937 rng(303);
  std::normal_distribution<double> d(0.0, 1.0);
  w.in.resize(kGemmRows * kGemmDim);
  w.w.resize(kGemmDim * kGemmDim);
  w.bias.resize(kGemmDim);
  for (auto& v : w.in) v = d(rng);
  for (auto& v : w.w) v = d(rng);
  for (auto& v : w.bias) v = d(rng);
  return w;
}

void run_gemm(const GemmWorkload& w, std::vector<double>* out) {
  out->assign(kGemmRows * kGemmDim, 0.0);
  util::parallel_for_chunks(
      kGemmRows,
      [&](std::size_t lo, std::size_t hi) {
        kn::dense_forward(w.in.data() + lo * kGemmDim, hi - lo, kGemmDim,
                          w.w.data(), w.bias.data(), kGemmDim,
                          out->data() + lo * kGemmDim);
      },
      /*grain=*/64);
}

// --- dense backward, mirroring one training step per mini-batch ------

struct BackwardWorkload {
  std::vector<double> in;    // kGemmRows x kGemmDim layer inputs
  std::vector<double> dout;  // kGemmRows x kGemmDim deltas, ReLU-sparse
  std::vector<double> w;     // kGemmDim x kGemmDim
};

BackwardWorkload make_backward_workload() {
  BackwardWorkload w;
  std::mt19937 rng(404);
  std::normal_distribution<double> d(0.0, 1.0);
  w.in.resize(kGemmRows * kGemmDim);
  w.dout.resize(kGemmRows * kGemmDim);
  w.w.resize(kGemmDim * kGemmDim);
  for (auto& v : w.in) v = d(rng);
  // About half the deltas are exactly zero, as behind a ReLU.
  for (auto& v : w.dout) v = std::max(0.0, d(rng));
  for (auto& v : w.w) v = d(rng);
  return w;
}

// One pass: the gradients of kGemmRows / kBatchRows mini-batches, the
// batches spread across the pool. Each batch owns its gw and gb slots,
// as each ensemble member owns its own. out = [gw | gb] per batch, then
// din for every row.
void run_backward(const BackwardWorkload& w, std::vector<double>* out) {
  constexpr std::size_t kBatches = kGemmRows / kBatchRows;
  constexpr std::size_t kGrad = kGemmDim * kGemmDim + kGemmDim;
  out->assign(kBatches * kGrad + kGemmRows * kGemmDim, 0.0);
  double* din = out->data() + kBatches * kGrad;
  util::parallel_for_chunks(
      kBatches,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          const std::size_t r = b * kBatchRows;
          double* gw = out->data() + b * kGrad;
          kn::dense_backward(w.in.data() + r * kGemmDim,
                             w.dout.data() + r * kGemmDim, kBatchRows,
                             kGemmDim, w.w.data(), kGemmDim, gw,
                             gw + kGemmDim * kGemmDim, din + r * kGemmDim);
        }
      },
      /*grain=*/1);
}

struct AbResult {
  double scalar_ms[2];  // [0] = 1 thread, [1] = 4 threads
  double avx2_ms[2];
  bool identical = true;
};

struct KernelAb {
  const char* name;
  AbResult result;
};

// Time one kernel under both tiers and both thread counts; identity is
// every output against the scalar single-thread reference.
template <typename OutT, typename RunFn, typename EqFn>
AbResult ab_kernel(const RunFn& run, const EqFn& eq) {
  AbResult r;
  OutT reference;
  {
    ScopedKernels tier("scalar");
    ScopedThreads threads(1);
    run(&reference);
  }
  const long thread_counts[2] = {1, 4};
  for (int ti = 0; ti < 2; ++ti) {
    ScopedThreads threads(thread_counts[ti]);
    {
      ScopedKernels tier("scalar");
      OutT out;
      r.scalar_ms[ti] = best_of_ms([&] { run(&out); });
      r.identical = r.identical && eq(reference, out);
    }
    {
      ScopedKernels tier("avx2");
      OutT out;
      r.avx2_ms[ti] = best_of_ms([&] { run(&out); });
      r.identical = r.identical && eq(reference, out);
    }
  }
  return r;
}

bool doubles_identical(const std::vector<double>& a,
                       const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int run_kernels_ab() {
  bench::banner("SIMD kernel A/B (scalar vs AVX2)",
                "packed traversal / dense GEMM / dense backward");
  const bool avx2_active = kn::avx2_compiled() && kn::avx2_supported();
  std::printf("dispatch: %s\n", kn::describe().c_str());
  if (!avx2_active) {
    std::printf("AVX2 tier unavailable; A/B degenerates to scalar/scalar\n");
  }

  const auto trav_w = make_trav_workload();
  const auto trav = ab_kernel<std::vector<double>>(
      [&](std::vector<double>* out) { run_trav(trav_w, out); },
      doubles_identical);

  const auto gemm_w = make_gemm_workload();
  const auto gemm = ab_kernel<std::vector<double>>(
      [&](std::vector<double>* out) { run_gemm(gemm_w, out); },
      doubles_identical);

  const auto backward_w = make_backward_workload();
  const auto backward = ab_kernel<std::vector<double>>(
      [&](std::vector<double>* out) { run_backward(backward_w, out); },
      doubles_identical);

  const KernelAb kernels[] = {{"traversal", trav},
                              {"gemm", gemm},
                              {"dense_backward", backward}};
  bool identical = true;
  std::printf("%-14s %4s %12s %12s %9s %6s\n", "kernel", "thr", "scalar_ms",
              "avx2_ms", "speedup", "ident");
  for (const auto& k : kernels) {
    identical = identical && k.result.identical;
    for (int ti = 0; ti < 2; ++ti) {
      std::printf("%-14s %4d %12.2f %12.2f %8.2fx %6s\n", k.name,
                  ti == 0 ? 1 : 4, k.result.scalar_ms[ti],
                  k.result.avx2_ms[ti],
                  k.result.scalar_ms[ti] / k.result.avx2_ms[ti],
                  k.result.identical ? "yes" : "NO");
    }
  }

  FILE* out = std::fopen("BENCH_kernels.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"rows\": %zu,\n"
                 "  \"dispatch\": \"%s\",\n"
                 "  \"avx2_active\": %s,\n"
                 "  \"identical\": %s",
                 kRows, kn::describe().c_str(), avx2_active ? "true" : "false",
                 identical ? "true" : "false");
    for (const auto& k : kernels) {
      std::fprintf(
          out,
          ",\n"
          "  \"%s\": {\n"
          "    \"t1\": {\"scalar_ms\": %.2f, \"avx2_ms\": %.2f, "
          "\"speedup\": %.3f},\n"
          "    \"t4\": {\"scalar_ms\": %.2f, \"avx2_ms\": %.2f, "
          "\"speedup\": %.3f}\n"
          "  }",
          k.name, k.result.scalar_ms[0], k.result.avx2_ms[0],
          k.result.scalar_ms[0] / k.result.avx2_ms[0], k.result.scalar_ms[1],
          k.result.avx2_ms[1], k.result.scalar_ms[1] / k.result.avx2_ms[1]);
    }
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_kernels.json\n");
  }
  std::printf("tiers bit-identical   %s\n", identical ? "PASS" : "FAIL");
  return identical ? 0 : 1;
}

}  // namespace kernels_ab

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--kernels_ab") {
      return kernels_ab::run_kernels_ab();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
