// offline-theta: simulated Theta-like job logs -> sharded ingest -> the
// taxonomy steps.
//
// Set-up (in forked children, so simulation stays out of the measured
// process's memory peak; their CPU time is setup_s): simulate the system
// and write its binary job-log archive as contiguous shards. Timed part: repeated
// passes of build_dataset_ingest_sharded -> run_taxonomy at
// IOTAX_THREADS = nproc, each pass's report digested and compared, and
// before each pass a burst of single-shard ingests (p50_ms.lo).
//
// Traced run: one untraced reference pass, then the same pass replayed
// step by step through the public step functions with each step timed;
// the replay's report must equal the reference bit for bit. Finally the
// program's own taxonomy.* spans (obs on for that one pass only) are
// read and set beside the replay's step times.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "src/data/footprint.hpp"
#include "src/ml/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/dataset_builder.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/pipeline.hpp"
#include "src/telemetry/binary_log.hpp"

namespace perfbench {
namespace {

using iotax::taxonomy::TaxonomyReport;

constexpr const char* kSystem = "theta-like";
constexpr std::size_t kShards = 8;
// Job count of the timed dataset: large enough that every step reports
// full confidence, small enough for several passes per run.
constexpr std::size_t kJobs = 3000;
constexpr std::size_t kSmokeJobs = 1000;
constexpr int kSetupReps = 5;
// p50_ms.lo samples: single-shard ingests of about a millisecond each,
// this many before every timed pass.
constexpr std::size_t kShardIngests = 64;
constexpr std::size_t kSmokeShardIngests = 8;

const char* const kSteps[] = {"baseline",     "app_bound", "search",
                              "system_bound", "ood",       "noise_bound"};

std::vector<iotax::sim::IngestShard> shard_list(const std::string& dir) {
  std::vector<iotax::sim::IngestShard> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back({dir + "/jobs." + std::to_string(s) + ".bin", true});
  }
  return shards;
}

/// Simulate the system and write its archive as kShards contiguous
/// record slices (replayed in order they are the full record stream).
bool write_archive(std::size_t n_jobs, const std::string& dir) {
  const auto res = iotax::sim::simulate(theta_scaled(n_jobs));
  const auto& rec = res.records;
  const auto shards = shard_list(dir);
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::size_t lo = s * rec.size() / kShards;
    const std::size_t hi = (s + 1) * rec.size() / kShards;
    const std::vector<iotax::telemetry::JobLogRecord> slice(
        rec.begin() + static_cast<long>(lo), rec.begin() + static_cast<long>(hi));
    iotax::telemetry::write_binary_archive_file(shards[s].path, slice);
  }
  return true;
}

std::string report_digest(const TaxonomyReport& r) {
  Digest d;
  d.add(r.system);
  d.add(static_cast<std::uint64_t>(r.n_jobs));
  for (const auto* part : {&r.split.train, &r.split.val, &r.split.test}) {
    d.add(static_cast<std::uint64_t>(part->size()));
    for (const auto i : *part) d.add(static_cast<std::uint64_t>(i));
  }
  d.add(r.baseline_error);
  d.add(static_cast<std::uint64_t>(r.app_bound.stats.n_sets));
  d.add(static_cast<std::uint64_t>(r.app_bound.stats.n_duplicate_jobs));
  d.add(r.app_bound.stats.duplicate_fraction);
  d.add(r.app_bound.median_abs_error);
  d.add(r.app_bound.mean_abs_error);
  d.add(r.tuned_error);
  d.add(static_cast<std::uint64_t>(r.tuned_params.n_estimators));
  d.add(static_cast<std::uint64_t>(r.tuned_params.max_depth));
  d.add(r.tuned_params.subsample);
  d.add(r.tuned_params.colsample);
  d.add(r.system_bound.err_app_only);
  d.add(r.system_bound.err_with_time);
  d.add(r.system_bound.reduction_frac);
  d.add(r.lmt_enriched_error.value_or(-1.0));
  if (r.ood.has_value()) {
    d.add(r.ood->eu_threshold);
    d.add(static_cast<std::uint64_t>(r.ood->n_ood));
    d.add(r.ood->frac_ood);
    d.add(r.ood->error_share_ood);
    d.add(r.ood->error_ratio);
    for (const bool b : r.ood->is_ood) d.add(static_cast<std::uint64_t>(b));
  }
  d.add(static_cast<std::uint64_t>(r.noise.n_sets));
  d.add(static_cast<std::uint64_t>(r.noise.n_jobs));
  d.add(r.noise.median_abs_error);
  d.add(r.noise.sigma_log10);
  d.add(r.noise.band68_pct);
  d.add(r.noise.band95_pct);
  d.add(r.noise.t_fit.df);
  d.add(r.noise.t_fit.loc);
  d.add(r.noise.t_fit.scale);
  for (const double s : {r.share_app, r.share_app_realized, r.share_system,
                         r.share_system_realized, r.share_ood,
                         r.share_aleatory, r.share_unexplained}) {
    d.add(s);
  }
  for (const auto& h : r.health) {
    d.add(h.step);
    d.add(h.confidence);
    d.add(h.reason);
    d.add(static_cast<std::uint64_t>(h.n_samples));
  }
  return d.hex();
}

/// Steps that ran below full confidence (a step that throws aborts the
/// pass). lmt_enrich runs only on systems with LMT telemetry; its skip
/// on one without is by design and not a failure.
std::size_t failed_steps(const TaxonomyReport& r) {
  std::size_t failed = 0;
  for (const auto& h : r.health) {
    if (h.step == "lmt_enrich" && !h.ran) continue;
    if (h.confidence != "full") ++failed;
  }
  return failed;
}

struct Pass {
  double steal_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t jobs = 0;
  iotax::sim::IngestResult ingest;
  TaxonomyReport report;
};

Pass timed_pass(const std::vector<iotax::sim::IngestShard>& shards,
               const iotax::taxonomy::PipelineConfig& config) {
  Pass p;
  const double t0 = wall_now(), c0 = process_cpu_s(), s0 = host_steal_s();
  p.ingest = iotax::sim::build_dataset_ingest_sharded(
      shards, nullptr, kSystem, nullptr, iotax::sim::IngestMode::kRepair);
  p.report = iotax::taxonomy::run_taxonomy(p.ingest.dataset, config);
  p.wall_s = wall_now() - t0;
  p.cpu_s = process_cpu_s() - c0;
  p.steal_s = host_steal_s() - s0;
  p.jobs = p.ingest.dataset.size();
  return p;
}

// ---- traced step-by-step replay ----------------------------------------

struct StepTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

struct Replay {
  TaxonomyReport report;
  std::map<std::string, StepTime> steps;
  std::size_t search_points = 0;
  double ensemble_fit_s = 0.0;
  double ensemble_predict_s = 0.0;
};

template <typename Fn>
void timed_step(Replay& out, const std::string& name, Fn&& fn) {
  const double t0 = wall_now(), c0 = process_cpu_s();
  fn();
  out.steps[name] = {wall_now() - t0, process_cpu_s() - c0};
}

iotax::taxonomy::StepHealth step_health(std::string step, std::size_t n,
                                        std::size_t minimum,
                                        std::string below_reason) {
  iotax::taxonomy::StepHealth h;
  h.step = std::move(step);
  h.ran = true;
  h.n_samples = n;
  if (n < minimum) {
    h.degraded = true;
    h.confidence = "reduced";
    h.reason = std::move(below_reason);
  }
  return h;
}

iotax::taxonomy::StepHealth step_skipped(std::string step,
                                         std::string reason) {
  iotax::taxonomy::StepHealth h;
  h.step = std::move(step);
  h.degraded = true;
  h.confidence = "none";
  h.reason = std::move(reason);
  return h;
}

/// run_taxonomy, replayed through the public step functions in the same
/// order with the same inputs, timing each step. Its report must match
/// run_taxonomy's bit for bit; if it does not, the step times describe
/// a different program.
Replay replay_taxonomy(const iotax::data::DatasetView& ds,
                       const iotax::taxonomy::PipelineConfig& config) {
  namespace ml = iotax::ml;
  namespace tx = iotax::taxonomy;
  Replay out;
  auto& report = out.report;
  report.system = ds.system_name();
  report.n_jobs = ds.size();
  const auto& req = config.requirements;
  iotax::util::Rng split_rng(config.split_seed);
  report.split = iotax::data::random_split(ds.size(), config.train_frac,
                                           config.val_frac, split_rng);
  const auto& split = report.split;
  const bool has_lmt = ds.has_feature("LMT_OSS_CPU_MEAN");
  std::vector<std::size_t> c_train, r_train, c_val, r_val, c_test, r_test;
  const auto x_train = tx::feature_view(ds, config.app_features, &c_train,
                                        &r_train, split.train);
  const auto x_val =
      tx::feature_view(ds, config.app_features, &c_val, &r_val, split.val);
  const auto x_test =
      tx::feature_view(ds, config.app_features, &c_test, &r_test, split.test);
  const auto y_train = tx::targets(ds, split.train);
  const auto y_val = tx::targets(ds, split.val);
  const auto y_test = tx::targets(ds, split.test);

  timed_step(out, "baseline", [&] {
    ml::GradientBoostedTrees baseline;
    baseline.fit(x_train, y_train);
    report.baseline_error =
        ml::median_abs_log_error(y_test, baseline.predict(x_test));
    auto h = step_health("baseline", split.train.size(), req.min_train,
                         "train split below minimum");
    if (!h.degraded && split.test.size() < req.min_test) {
      h.degraded = true;
      h.confidence = "reduced";
      h.reason = "test split below minimum";
    }
    report.health.push_back(std::move(h));
  });

  bool app_bound_ok = true;
  timed_step(out, "app_bound", [&] {
    try {
      report.app_bound = tx::litmus_application_bound(ds);
      report.health.push_back(
          step_health("app_bound", report.app_bound.stats.n_sets,
                      req.min_dup_sets, "fewer duplicate sets than required"));
    } catch (const std::invalid_argument&) {
      app_bound_ok = false;
      report.app_bound = tx::AppBoundResult{};
      report.health.push_back(step_skipped("app_bound", "no duplicate sets"));
    }
  });

  if (!split.val.empty()) {
    timed_step(out, "search", [&] {
      const auto search =
          ml::grid_search(config.grid, x_train, y_train, x_val, y_val);
      out.search_points = search.evaluated.size();
      report.tuned_params = search.best.params;
      ml::GradientBoostedTrees tuned(report.tuned_params);
      tuned.fit(x_train, y_train);
      report.tuned_error =
          ml::median_abs_log_error(y_test, tuned.predict(x_test));
      report.health.push_back(step_health("search", split.val.size(),
                                          req.min_val,
                                          "validation split below minimum"));
    });
  } else {
    report.tuned_params = ml::GbtParams{};
    report.tuned_error = report.baseline_error;
    report.health.push_back(step_skipped("search", "no validation rows"));
  }

  timed_step(out, "system_bound", [&] {
    auto timed_sets = config.app_features;
    timed_sets.push_back(tx::FeatureSet::kStartTimeOnly);
    std::vector<std::size_t> c_ttr, r_ttr, c_tte, r_tte;
    const auto x_train_timed =
        tx::feature_view(ds, timed_sets, &c_ttr, &r_ttr, split.train);
    const auto x_test_timed =
        tx::feature_view(ds, timed_sets, &c_tte, &r_tte, split.test);
    report.system_bound = tx::litmus_system_bound(
        x_train, x_test, x_train_timed, x_test_timed, y_train, y_test,
        report.tuned_params);
    report.health.push_back(step_health("system_bound", split.test.size(),
                                        req.min_test,
                                        "test split below minimum"));
  });

  if (has_lmt) {
    timed_step(out, "lmt_enrich", [&] {
      auto enriched_sets = config.app_features;
      enriched_sets.push_back(tx::FeatureSet::kLmt);
      std::vector<std::size_t> c_etr, r_etr, c_ete, r_ete;
      const auto x_train_enr =
          tx::feature_view(ds, enriched_sets, &c_etr, &r_etr, split.train);
      const auto x_test_enr =
          tx::feature_view(ds, enriched_sets, &c_ete, &r_ete, split.test);
      ml::GbtParams params = report.tuned_params;
      params.n_estimators = std::max<std::size_t>(params.n_estimators * 2, 128);
      ml::GradientBoostedTrees model(params);
      model.fit(x_train_enr, y_train);
      report.lmt_enriched_error =
          ml::median_abs_log_error(y_test, model.predict(x_test_enr));
      report.health.push_back(step_health("lmt_enrich", split.train.size(),
                                          req.min_train,
                                          "train split below minimum"));
    });
  } else {
    report.health.push_back(
        step_skipped("lmt_enrich", "no LMT telemetry on this system"));
  }

  std::vector<bool> exclude(ds.size(), false);
  if (config.run_uq) {
    timed_step(out, "ood", [&] {
      std::vector<std::size_t> uq_rows = split.train;
      if (uq_rows.size() > config.uq_train_cap) {
        uq_rows.erase(uq_rows.begin(),
                      uq_rows.end() - static_cast<long>(config.uq_train_cap));
      }
      ml::DeepEnsemble ensemble(config.ensemble);
      std::vector<std::size_t> c_uq, r_uq;
      const auto x_uq =
          tx::feature_view(ds, config.app_features, &c_uq, &r_uq, uq_rows);
      double t = wall_now();
      ensemble.fit(x_uq, tx::targets(ds, uq_rows));
      out.ensemble_fit_s = wall_now() - t;
      t = wall_now();
      const auto uq = ensemble.predict_uncertainty(x_test);
      out.ensemble_predict_s = wall_now() - t;
      std::vector<double> abs_err(y_test.size());
      for (std::size_t i = 0; i < y_test.size(); ++i) {
        abs_err[i] = std::fabs(uq.mean[i] - y_test[i]);
      }
      report.ood = tx::litmus_ood(uq.epistemic, abs_err);
      for (std::size_t i = 0; i < split.test.size(); ++i) {
        if (report.ood->is_ood[i]) exclude[split.test[i]] = true;
      }
      report.health.push_back(step_health("ood", uq_rows.size(),
                                          req.min_uq_rows,
                                          "too few rows to train the ensemble"));
    });
  } else {
    report.health.push_back(step_skipped("ood", "disabled (run_uq = false)"));
  }

  bool noise_ok = true;
  timed_step(out, "noise_bound", [&] {
    try {
      report.noise = tx::litmus_noise_bound(ds, config.dt_window, &exclude);
      report.health.push_back(
          step_health("noise_bound", report.noise.n_sets,
                      req.min_concurrent_sets,
                      "fewer concurrent duplicate sets than required"));
    } catch (const std::invalid_argument&) {
      noise_ok = false;
      report.noise = tx::NoiseBoundResult{};
      report.health.push_back(
          step_skipped("noise_bound", "too few concurrent duplicate sets"));
    }
  });

  // Fig. 7 segment arithmetic, as in run_taxonomy.
  const double base = std::max(report.baseline_error, 1e-12);
  const auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  if (app_bound_ok) {
    report.share_app = clamp01(
        (report.baseline_error - report.app_bound.median_abs_error) / base);
  }
  report.share_app_realized =
      clamp01((report.baseline_error - report.tuned_error) / base);
  const double system_ref = app_bound_ok ? report.app_bound.median_abs_error
                                         : report.tuned_error;
  report.share_system =
      clamp01((system_ref - report.system_bound.err_with_time) / base);
  if (report.lmt_enriched_error.has_value()) {
    report.share_system_realized =
        clamp01((report.tuned_error - *report.lmt_enriched_error) / base);
  }
  if (report.ood.has_value()) {
    report.share_ood = clamp01(report.ood->error_share_ood *
                               report.system_bound.err_with_time / base);
  }
  if (noise_ok) {
    report.share_aleatory = clamp01(report.noise.median_abs_error / base);
  }
  report.share_unexplained =
      clamp01(1.0 - report.share_app - report.share_system -
              report.share_ood - report.share_aleatory);
  return out;
}

void corrupt_report(TaxonomyReport& r) {
  r.tuned_error = std::nextafter(r.tuned_error, 1.0);
}

}  // namespace

Outcome run_offline(const Options& opt) {
  Outcome out;
  const std::size_t n_jobs = opt.smoke ? kSmokeJobs : kJobs;
  const std::string dir = opt.work_dir + "/archive";
  std::filesystem::create_directories(dir);
  ::setenv("IOTAX_THREADS", std::to_string(n_cpus()).c_str(), 1);

  // ---- set-up: simulate + write the archive, kSetupReps times. Its
  // cost is the children's CPU time; their wall time is printed too.
  std::vector<double> setup_cpu, setup_wall;
  for (int rep = 0; rep < (opt.trace || opt.smoke ? 1 : kSetupReps); ++rep) {
    const double t0 = wall_now();
    const auto child = in_child([&] { return write_archive(n_jobs, dir); });
    setup_wall.push_back(wall_now() - t0);
    setup_cpu.push_back(child.cpu_s);
    out.check(child.ok, "set-up: simulating and writing the archive failed");
    if (!child.ok) return out;
  }
  const auto shards = shard_list(dir);
  // The library-default pipeline on a fixed dataset: the seed does not
  // change this workload's input. Another split changes the tuned
  // hyperparameters, and with them the work of three steps by up to a
  // third, which would swamp any regression bound.
  const iotax::taxonomy::PipelineConfig config;

  const double steal0 = host_steal_s();
  if (!opt.trace) {
    // ---- timed passes.
    reset_peak_rss();
    Pass last;
    double rss_mb = 0.0;
    std::vector<double> wall, cpu;
    std::string first_digest;
    const double start = wall_now();
    // The offline path's lightest request, and its counterpart of the
    // serving workloads' p50 at the lo rate: one archive shard ingested
    // on its own. Each takes about a millisecond, so a host preemption
    // spoils few samples; they are spread over the run, before every
    // pass, so the median does not hang on one moment of the host.
    std::vector<double> shard_ms;
    const auto shard_ingests = [&] {
      const std::size_t n = opt.smoke ? kSmokeShardIngests : kShardIngests;
      for (std::size_t i = 0; i < n; ++i) {
        const std::vector<iotax::sim::IngestShard> one = {
            shards[shard_ms.size() % kShards]};
        const double t = wall_now();
        const auto res = iotax::sim::build_dataset_ingest_sharded(
            one, nullptr, kSystem, nullptr, iotax::sim::IngestMode::kRepair);
        shard_ms.push_back(1000.0 * (wall_now() - t));
        out.check(res.dataset.size() > 0 && res.quarantine.total() == 0,
                  "single-shard ingest of a clean archive shard failed");
      }
    };
    const std::size_t min_passes = opt.smoke ? 2 : 3;
    for (;;) {
      shard_ingests();
      Pass p = timed_pass(shards, config);
      if (opt.corrupt == "report" && !wall.empty()) corrupt_report(p.report);
      const auto digest = report_digest(p.report);
      if (first_digest.empty()) first_digest = digest;
      out.check(digest == first_digest,
                "offline report digest changed between passes (" +
                    first_digest + " vs " + digest + ")");
      out.check(p.report.health.size() == 7,
                "report does not carry the 7 step-health entries");
      out.check(p.ingest.quarantine.total() == 0,
                "ingest quarantined records of a clean archive");
      out.attempted += 7;
      out.failed += failed_steps(p.report);
      wall.push_back(p.wall_s);
      cpu.push_back(p.cpu_s);
      std::printf("# pass %zu  wall %.3f s  cpu %.3f s  steal %.2f s\n",
                  wall.size(), p.wall_s, p.cpu_s, p.steal_s);
      last = std::move(p);
      // Peak RSS of one pass; later passes only add allocator noise.
      if (wall.size() == 1) rss_mb = peak_rss_mb(::getpid());
      const double elapsed = wall_now() - start;
      if (wall.size() >= min_passes &&
          (opt.smoke || elapsed + median(wall) > opt.seconds)) {
        break;
      }
    }
    const double steal = host_steal_s() - steal0;
    const std::size_t n = wall.size();
    const double jobs = static_cast<double>(last.jobs);
    out.gated["setup_s"] = {median(setup_cpu), "s", setup_cpu.size()};
    out.gated["cpu_us_per_item"] = {1e6 * median(cpu) / jobs, "us", n};
    out.gated["peak_rss_mb"] = {rss_mb, "MiB", 1};
    out.gated["error_pct"] = {
        iotax::ml::log_error_to_percent(last.report.tuned_error), "%", n};
    out.gated["p50_ms.lo"] = {median(shard_ms), "ms", shard_ms.size()};
    out.extra["setup_wall_s"] = {median(setup_wall), "s", setup_wall.size()};
    out.extra["jobs"] = {jobs, "jobs", 1};
    out.extra["jobs_per_s"] = {jobs / median(wall), "jobs/s", n};
    out.extra["cpu_s"] = {median(cpu), "s", n};
    out.extra["wall_s"] = {median(wall), "s", n};
    out.extra["tuned_error_pct"] = out.gated["error_pct"];
    out.extra["failed_frac"] = {
        static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "frac", static_cast<std::size_t>(out.attempted)};
    out.extra["host.steal_s"] = {steal, "s", 1};
    out.notes["report_digest"] = first_digest;
    std::istringstream report(iotax::taxonomy::render_report(last.report));
    for (std::string line; std::getline(report, line);) {
      std::printf("# %s\n", line.c_str());
    }
    return out;
  }

  // ---- traced run.
  // Untraced reference pass: the report every later pass must reproduce.
  Pass ref = timed_pass(shards, config);
  const auto ref_digest = report_digest(ref.report);
  out.attempted += 7;
  out.failed += failed_steps(ref.report);

  // Step-by-step replay with per-layer timing.
  iotax::data::footprint::reset_peak();
  const double t0 = wall_now();
  auto ingest = iotax::sim::build_dataset_ingest_sharded(
      shards, nullptr, kSystem, nullptr, iotax::sim::IngestMode::kRepair);
  const double ingest_wall = wall_now() - t0;
  Replay replay = replay_taxonomy(ingest.dataset, config);
  const double replay_wall = wall_now() - t0;
  if (opt.corrupt == "report") corrupt_report(replay.report);
  const auto replay_digest = report_digest(replay.report);
  out.check(replay_digest == ref_digest,
            "traced replay report " + replay_digest +
                " differs from run_taxonomy's " + ref_digest);
  const double peak_mat_mb =
      static_cast<double>(iotax::data::footprint::peak_bytes()) /
      (1024.0 * 1024.0);

  // Cross-check against the program's own spans: obs on for one pass.
  iotax::obs::set_enabled(true);
  iotax::obs::TraceLog::global().reset();
  const auto obs_report =
      iotax::taxonomy::run_taxonomy(ingest.dataset, config);
  iotax::obs::set_enabled(false);
  out.check(report_digest(obs_report) == ref_digest,
            "run_taxonomy with obs on changed the report");
  std::map<std::string, double> span_s;
  for (const auto& ev : iotax::obs::TraceLog::global().snapshot()) {
    if (ev.name.rfind("taxonomy.", 0) == 0) {
      span_s[ev.name.substr(9)] += 1e-9 * static_cast<double>(ev.dur_ns);
    }
  }
  iotax::obs::TraceLog::global().reset();
  std::printf("# step          replay_s    span_s   (obs-on pass)\n");
  double max_dev = 0.0;
  for (const char* step : kSteps) {
    const double r = replay.steps[step].wall_s;
    const double s = span_s.count(step) ? span_s[step] : 0.0;
    std::printf("# %-12s %9.4f %9.4f\n", step, r, s);
    if (r > 0.0) max_dev = std::max(max_dev, std::fabs(s - r) / r);
  }

  const double steal = host_steal_s() - steal0;
  auto& L = out.layers;
  L["sim.ingest.wall_s"] = {ingest_wall, "s", 1};
  L["sim.ingest.records"] = {static_cast<double>(ingest.kept_records.size() +
                                                 ingest.quarantine.total()),
                             "count", 1};
  L["sim.ingest.quarantined"] = {
      static_cast<double>(ingest.quarantine.total()), "count", 1};
  for (const char* step : kSteps) {
    const auto& st = replay.steps[step];
    L[std::string("taxonomy.") + step + ".wall_s"] = {st.wall_s, "s", 1};
    L[std::string("taxonomy.") + step + ".cpu_s"] = {st.cpu_s, "s", 1};
  }
  L["ml.search.points"] = {static_cast<double>(replay.search_points), "count",
                           1};
  L["ml.ensemble_fit.wall_s"] = {replay.ensemble_fit_s, "s", 1};
  L["ml.ensemble_predict.wall_s"] = {replay.ensemble_predict_s, "s", 1};
  L["data.peak_materialized_mb"] = {peak_mat_mb, "MiB", 1};
  L["host.steal_s"] = {steal, "s", 1};
  L["trace.overhead_pct"] = {100.0 * (replay_wall - ref.wall_s) / ref.wall_s,
                             "%", 1};
  L["trace.span_dev_pct"] = {100.0 * max_dev, "%", 1};
  out.extra["jobs_per_s.untraced"] = {
      static_cast<double>(ref.jobs) / ref.wall_s, "jobs/s", 1};
  out.extra["jobs_per_s.traced"] = {
      static_cast<double>(ref.jobs) / replay_wall, "jobs/s", 1};
  out.notes["report_digest"] = ref_digest;
  return out;
}

}  // namespace perfbench
