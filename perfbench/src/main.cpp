// iotax end-to-end benchmark harness.
//
//   iotax_perfbench --workload offline-theta|serve-direct|serve-routed
//                   --seed N --seconds S --trace 0|1
//                   --iotax-bin PATH --work-dir DIR [--rev REV]
//                   [--smoke] [--corrupt served|report] [--overload]
//
// Prints provenance, every measured figure with its unit and sample
// count (lines starting with '#'), and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// any correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "src/ml/kernels/dispatch.hpp"

namespace perfbench {
namespace {

// The BENCHMARK.json metric sets, in order.
const char* const kEndToEnd[] = {"setup_s", "cpu_us_per_item", "peak_rss_mb",
                                 "error_pct", "p50_ms.lo"};

struct LayerDef {
  const char* name;
  const char* unit;
};
const LayerDef kLayers[] = {
    {"sim.ingest.wall_s", "s"},
    {"sim.ingest.records", "count"},
    {"sim.ingest.quarantined", "count"},
    {"taxonomy.baseline.wall_s", "s"},
    {"taxonomy.baseline.cpu_s", "s"},
    {"taxonomy.app_bound.wall_s", "s"},
    {"taxonomy.app_bound.cpu_s", "s"},
    {"taxonomy.search.wall_s", "s"},
    {"taxonomy.search.cpu_s", "s"},
    {"taxonomy.system_bound.wall_s", "s"},
    {"taxonomy.system_bound.cpu_s", "s"},
    {"taxonomy.ood.wall_s", "s"},
    {"taxonomy.ood.cpu_s", "s"},
    {"taxonomy.noise_bound.wall_s", "s"},
    {"taxonomy.noise_bound.cpu_s", "s"},
    {"ml.search.points", "count"},
    {"ml.ensemble_fit.wall_s", "s"},
    {"ml.ensemble_predict.wall_s", "s"},
    {"data.peak_materialized_mb", "MiB"},
    {"serve.batches", "count"},
    {"serve.rows_per_batch.lo", "rows"},
    {"serve.rows_per_batch.hi", "rows"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    {"ml.score.us_per_row", "us"},
    {"fleet.retries", "count"},
    {"fleet.failovers", "count"},
    {"fleet.busy_retries", "count"},
    {"fleet.degraded", "count"},
    {"fleet.restarts", "count"},
    {"fleet.shard_p50_ms.lo", "ms"},
    {"fleet.route_tax_ms.lo", "ms"},
    {"loadgen.lag_ms.p99", "ms"},
    {"loadgen.sent", "count"},
    {"host.steal_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.span_dev_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "iotax_perfbench: %s\nusage: iotax_perfbench --workload "
               "offline-theta|serve-direct|serve-routed --seed N --seconds S "
               "--trace 0|1 --iotax-bin PATH --work-dir DIR [--rev REV] "
               "[--smoke] [--corrupt served|report] [--overload]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
      have_trace = true;
    } else if (a == "--iotax-bin") {
      opt.iotax_bin = value();
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--rev") {
      opt.rev = value();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--corrupt") {
      opt.corrupt = value();
    } else if (a == "--overload") {
      opt.overload = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || opt.iotax_bin.empty() || opt.work_dir.empty() ||
      !have_trace || opt.seconds <= 0.0) {
    usage("missing or invalid arguments");
  }
  if (!opt.corrupt.empty() && opt.corrupt != "served" &&
      opt.corrupt != "report") {
    usage("--corrupt takes served or report");
  }
  return opt;
}

void print_metric(const std::string& name, const Metric& m) {
  std::printf("# %-32s %16.6f %-7s n=%zu\n", name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  const bool offline = opt.workload == "offline-theta";
  if (!offline && opt.workload != "serve-direct" &&
      opt.workload != "serve-routed") {
    usage(("unknown workload " + opt.workload).c_str());
  }
  const char* scale = std::getenv("IOTAX_SCALE");
  std::printf("# workload %s seed %llu seconds %g trace %d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " smoke" : "");
  std::printf("# provenance rev=%s kernels=\"%s\" IOTAX_THREADS=%s "
              "IOTAX_SCALE=%s nproc=%zu\n",
              opt.rev.empty() ? "unknown" : opt.rev.c_str(),
              iotax::ml::kernels::describe().c_str(),
              offline ? std::to_string(n_cpus()).c_str() : "1",
              scale != nullptr ? scale : "unset", n_cpus());
  std::fflush(stdout);

  Outcome out;
  try {
    out = offline ? run_offline(opt)
                  : run_serving(opt, opt.workload == "serve-routed");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iotax_perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& [name, m] : out.extra) print_metric(name, m);
  for (const auto& [name, v] : out.notes) {
    std::printf("# %-32s %s\n", name.c_str(), v.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, const Metric& m) {
    print_metric(name, m);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (!opt.trace) {
    for (const char* name : kEndToEnd) {
      const auto it = out.gated.find(name);
      if (it == out.gated.end()) {
        out.check(false, std::string("metric ") + name + " was not measured");
        continue;
      }
      emit(name, it->second);
    }
  } else {
    // A layer the workload does not exercise reads 0 (predicted flat).
    for (const auto& def : kLayers) {
      const auto it = out.layers.find(def.name);
      emit(def.name, it != out.layers.end() ? it->second
                                            : Metric{0.0, def.unit, 0});
    }
  }
  json += "}}";
  std::printf("# failed %llu of %llu attempted\n",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const auto& f : out.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", json.c_str());
  return out.correct && out.attempted > 0 ? 0 : 1;
}
