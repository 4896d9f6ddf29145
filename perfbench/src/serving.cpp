// serve-direct and serve-routed: open-loop requests of held-out
// Theta-like rows against
//   direct: one `iotax serve` daemon, or
//   routed: one `iotax fleet` (Router in front of a Supervisor running
//           1 group x 2 replicas of exec'd `iotax serve` shards),
// both at IOTAX_THREADS=1, serving the same library-default GBT
// checkpoint. The two differ only by the router hop.
//
// Set-up (setup_s, median of kSetupReps): simulate + train + write the
// checkpoint (in a forked child), then start the daemon or fleet and
// wait for its ready file. Timed part, on that one server:
//   lo, hi  open-loop Poisson steps at fixed rates (latency, from due);
//   sat     closed-loop windows (capacity and server CPU per request);
//   ladder  open-loop rates up to the first the server cannot keep up
//           with (max_rps: the highest that also holds p99 <= 5 ms).
// Every served value is checked bit for bit against offline
// Regressor::predict, and the server's drained accounting must match
// what the generator saw.
//
// The server processes are measured from outside: CPU and peak RSS from
// /proc, request/batch counters from the Server::stats, Router::stats
// and Supervisor::stats lines the CLI prints when it drains on SIGTERM.
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <string_view>
#include <utility>

#include "bench.hpp"
#include "loadgen.hpp"
#include "src/data/split.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/metrics.hpp"
#include "src/ml/registry.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kJobs = 4000;
constexpr std::size_t kSmokeJobs = 1000;
constexpr double kHoldOutFrac = 0.25;
constexpr std::uint64_t kSplitSeed = 41;
constexpr int kSetupReps = 5;

// Fixed rates, the same for both serving workloads. hi is half of
// serve-routed's median max_rps (2,828 req/s over 50 runs) on the commit
// that added this benchmark.
constexpr double kLoRate = 500.0;
constexpr double kHiRate = 1414.0;
// The rate ladder is the fixed grid kLadderBase * 2^(k/4), walked in
// half-octave rungs (k += 2).
constexpr double kLadderBase = 1000.0;
constexpr int kLadderMaxK = 28;  // 128,000 req/s
constexpr double kP99LimitMs = 5.0;
// Closed-loop capacity: kSatWindows windows, each connection keeping
// kSatDepth requests outstanding.
constexpr int kSatWindows = 5;
constexpr std::size_t kSatDepth = 16;

constexpr const char* kModel = "model.gbt";
constexpr const char* kRows = "rows.bin";

// ---- set-up --------------------------------------------------------------

/// Simulate, split, train the library-default GBT, write the checkpoint
/// and the held-out rows (x, y). Runs in a forked child. The model is the
/// same for every seed; the seed drives the traffic.
bool prepare(std::size_t n_jobs) {
  namespace tx = iotax::taxonomy;
  ::setenv("IOTAX_THREADS", std::to_string(n_cpus()).c_str(), 1);
  const auto res = iotax::sim::simulate(theta_scaled(n_jobs));
  const auto& ds = res.dataset;
  iotax::util::Rng rng(kSplitSeed);
  const auto split =
      iotax::data::random_split(ds.size(), 1.0 - kHoldOutFrac, 0.0, rng);
  const std::vector<tx::FeatureSet> feats = {tx::FeatureSet::kPosix,
                                             tx::FeatureSet::kMpiio};
  const auto x_train = tx::feature_matrix(ds, feats, split.train);
  const auto y_train = tx::targets(ds, split.train);
  iotax::ml::GradientBoostedTrees model;  // library defaults
  model.fit(x_train, y_train);
  {
    std::ofstream out(std::string(kModel) + ".tmp");
    model.save(out);
    if (!out.flush()) return false;
  }
  std::filesystem::rename(std::string(kModel) + ".tmp", kModel);

  const auto x_test = tx::feature_matrix(ds, feats, split.test);
  const auto y_test = tx::targets(ds, split.test);
  std::ofstream rows(kRows, std::ios::binary);
  const std::uint64_t dims[2] = {x_test.rows(), x_test.cols()};
  rows.write(reinterpret_cast<const char*>(dims), sizeof dims);
  rows.write(reinterpret_cast<const char*>(x_test.flat().data()),
             static_cast<std::streamsize>(x_test.flat().size() * sizeof(double)));
  rows.write(reinterpret_cast<const char*>(y_test.data()),
             static_cast<std::streamsize>(y_test.size() * sizeof(double)));
  return static_cast<bool>(rows.flush());
}

/// Held-out rows plus offline Regressor::predict of the checkpoint on
/// them: the values every served reply must equal bit for bit.
RequestRows load_rows() {
  RequestRows r;
  std::ifstream in(kRows, std::ios::binary);
  std::uint64_t dims[2] = {0, 0};
  in.read(reinterpret_cast<char*>(dims), sizeof dims);
  r.n_cols = dims[1];
  r.x.resize(dims[0] * dims[1]);
  r.y.resize(dims[0]);
  in.read(reinterpret_cast<char*>(r.x.data()),
          static_cast<std::streamsize>(r.x.size() * sizeof(double)));
  in.read(reinterpret_cast<char*>(r.y.data()),
          static_cast<std::streamsize>(r.y.size() * sizeof(double)));
  if (!in || dims[0] == 0) throw std::runtime_error("cannot read rows.bin");
  iotax::data::Matrix x(dims[0], dims[1]);
  std::copy(r.x.begin(), r.x.end(), x.mutable_row(0).data());
  const auto model = iotax::ml::load_regressor_file(kModel);
  const auto pred = model->predict(x);
  r.expect.resize(pred.size());
  std::memcpy(r.expect.data(), pred.data(), pred.size() * sizeof(double));
  return r;
}

// ---- server processes ----------------------------------------------------

/// A running server process. Destroying one that was not stopped kills
/// and reaps it, so an error path leaves no daemon behind.
struct Daemon {
  pid_t pid = -1;
  std::string socket;
  std::string log;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&& o) noexcept { *this = std::move(o); }
  Daemon& operator=(Daemon&& o) noexcept {
    kill_now();
    pid = std::exchange(o.pid, -1);
    socket = std::move(o.socket);
    log = std::move(o.log);
    return *this;
  }
  ~Daemon() { kill_now(); }

  void kill_now() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    wait_child(pid);
    pid = -1;
  }
};

/// Counters the CLI prints from Server::stats / Router::stats /
/// Supervisor::stats when it drains.
struct Drained {
  bool ok = false;
  double cpu_s = 0.0;  // the server processes' CPU over their lives
  // The front process: the daemon, or the fleet's router and supervisor.
  unsigned long long requests = 0, responses = 0, shed = 0, errors = 0,
                     degraded = 0, retries = 0, failovers = 0,
                     busy_retries = 0, restarts = 0;
  // The processes that batch and score: the daemon itself, or the fleet's
  // shards (serve lines from their logs), summed.
  unsigned long long shard_batches = 0, shard_responses = 0, shard_shed = 0,
                     shard_errors = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool parse_serve_line(const std::string& text, unsigned long long* req,
                      unsigned long long* batches, unsigned long long* resp,
                      unsigned long long* shed, unsigned long long* err) {
  const auto at = text.find("serve: drained;");
  if (at == std::string::npos) return false;
  return std::sscanf(text.c_str() + at,
                     "serve: drained; %llu request(s) in %llu batch(es), "
                     "%llu response(s), %llu shed, %llu error(s), "
                     "%*u quarantined",
                     req, batches, resp, shed, err) == 5;
}

Drained parse_drained(const Daemon& d, bool routed) {
  Drained s;
  const auto text = slurp(d.log);
  if (!routed) {
    s.ok = parse_serve_line(text, &s.requests, &s.shard_batches, &s.responses,
                            &s.shed, &s.errors);
    s.shard_responses = s.responses;
    s.shard_shed = s.shed;
    s.shard_errors = s.errors;
    return s;
  }
  const auto a = text.find("fleet: drained;");
  const auto b = text.find("fleet: backhaul retries");
  const auto c = text.find("fleet: supervisor spawned");
  if (a == std::string::npos || b == std::string::npos ||
      c == std::string::npos) {
    return s;
  }
  s.ok = std::sscanf(text.c_str() + a,
                     "fleet: drained; %llu request(s), %llu response(s), "
                     "%llu error(s), %llu degraded",
                     &s.requests, &s.responses, &s.errors, &s.degraded) == 4 &&
         std::sscanf(text.c_str() + b,
                     "fleet: backhaul retries %llu, failovers %llu, "
                     "busy-retries %llu",
                     &s.retries, &s.failovers, &s.busy_retries) == 3 &&
         std::sscanf(text.c_str() + c,
                     "fleet: supervisor spawned %*u, restarted %llu",
                     &s.restarts) == 1;
  for (const char* shard : {"fleet/g0r0.log", "fleet/g0r1.log"}) {
    unsigned long long q = 0, bt = 0, rs = 0, sh = 0, er = 0;
    if (!parse_serve_line(slurp(shard), &q, &bt, &rs, &sh, &er)) {
      s.ok = false;
      continue;
    }
    s.shard_batches += bt;
    s.shard_responses += rs;
    s.shard_shed += sh;
    s.shard_errors += er;
  }
  return s;
}

/// The server process and its children (fleet shards).
std::vector<pid_t> server_tree(const Daemon& d) {
  std::vector<pid_t> pids = {d.pid};
  for (const pid_t c : child_pids(d.pid)) pids.push_back(c);
  return pids;
}

/// Exec the daemon (or fleet) and wait until it is ready.
Daemon start_daemon(const Options& opt, bool routed) {
  Daemon d;
  d.socket = routed ? "router.sock" : "direct.sock";
  d.log = routed ? "fleet.out" : "serve.out";
  const std::string ready = routed ? "fleet.ready" : "serve.ready";
  ::unlink(ready.c_str());
  ::unlink(d.log.c_str());
  std::filesystem::remove_all("fleet");
  std::vector<std::string> argv = {opt.iotax_bin};
  if (routed) {
    std::filesystem::create_directories("fleet");
    argv.insert(argv.end(), {"fleet", "--models", kModel, "--socket",
                             d.socket, "--shard-dir", "fleet", "--groups",
                             "1", "--replicas", "2", "--iotax-bin",
                             opt.iotax_bin, "--ready-file", ready});
  } else {
    argv.insert(argv.end(), {"serve", "--models", kModel, "--socket",
                             d.socket, "--ready-file", ready});
  }
  std::vector<char*> cargv;
  for (auto& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  // The environment is built before fork: the child of a multithreaded
  // process may only make async-signal-safe calls before exec.
  std::vector<std::string> env = {"IOTAX_THREADS=1"};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.rfind("IOTAX_THREADS=", 0) != 0 && kv.rfind("IOTAX_OBS=", 0) != 0) {
      env.emplace_back(kv);
    }
  }
  std::vector<char*> cenv;
  for (auto& kv : env) cenv.push_back(kv.data());
  cenv.push_back(nullptr);
  d.pid = ::fork();
  if (d.pid < 0) throw std::runtime_error("fork failed");
  if (d.pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(d.log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execve(cargv[0], cargv.data(), cenv.data());
    ::_exit(127);
  }
  const double give_up = wall_now() + 30.0;
  const auto alive = [&] {
    int status = 0;
    if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
      d.pid = -1;  // exited and reaped
      throw std::runtime_error("server exited before it was ready; see " +
                               d.log);
    }
    if (wall_now() > give_up) {
      d.kill_now();
      throw std::runtime_error("server did not become ready; see " + d.log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  struct stat st{};
  while (::stat(ready.c_str(), &st) != 0) alive();
  // The CLI writes its ready file before it installs its SIGTERM
  // handler; a SIGTERM in between would kill it without a drain. Ready
  // means ready to be stopped too: wait until every process of the
  // server catches SIGTERM.
  const auto stoppable = [&] {
    for (const pid_t p : server_tree(d)) {
      if (!catches_signal(p, SIGTERM)) return false;
    }
    return true;
  };
  while (!stoppable()) alive();
  return d;
}

double tree_cpu_s(const Daemon& d) {
  double s = 0.0;
  for (const pid_t p : server_tree(d)) s += pid_cpu_s(p);
  return s;
}

double tree_peak_rss_mb(const Daemon& d) {
  double s = 0.0;
  for (const pid_t p : server_tree(d)) s += peak_rss_mb(p);
  return s;
}

Drained stop_daemon(Daemon& d, bool routed) {
  if (d.pid <= 0) return {};
  ::kill(d.pid, SIGTERM);
  const ChildExit exit = wait_child(d.pid);
  d.pid = -1;
  Drained s = parse_drained(d, routed);
  s.ok = s.ok && exit.ok;
  s.cpu_s = exit.cpu_s;
  return s;
}

// ---- steps ---------------------------------------------------------------

/// Request totals over a run. `scheduled` etc. cover the fixed-rate and
/// saturation steps (the ones whose failures count); `all_*` also cover
/// the ladder, for the server accounting check, which compares the
/// server's counts with the requests actually written to it.
struct Steps {
  std::size_t scheduled = 0, busy = 0, errors = 0, unanswered = 0,
              unsent = 0;
  std::size_t all_sent = 0, all_ok = 0, all_unanswered = 0;
  double lag_p99_ms = 0.0;

  void add(const StepResult& r, bool counted) {
    if (counted) {
      scheduled += r.scheduled;
      busy += r.busy;
      errors += r.errors;
      unanswered += r.unanswered;
      unsent += r.unsent;
    }
    all_sent += r.sent;
    all_ok += r.ok;
    all_unanswered += r.unanswered;
    lag_p99_ms = std::max(lag_p99_ms, r.lag_p99_ms);
  }
  void add_saturation(const SaturationResult& r) {
    scheduled += r.sent;
    errors += r.failed;
    all_sent += r.sent;
    all_ok += r.ok;
  }
  std::size_t failed() const { return busy + errors + unanswered + unsent; }
};

/// The max_rps criteria: p99 within the limit, nothing failed, no
/// growing backlog, and the generator held its schedule.
bool rung_passes(const StepResult& r) {
  return r.p99_ms <= kP99LimitMs && r.failed() == 0 && !r.backlog_growing() &&
         !r.generator_bound();
}

void print_step(const StepResult& r) {
  std::printf(
      "# step %-8s rate %8.0f  sent %6zu  ok %6zu  busy %zu err %zu "
      "unanswered %zu unsent %zu  p50 %.3f ms  p99 %.3f ms  lag_p99 %.3f "
      "ms%s%s\n",
      r.name.c_str(), r.rate, r.sent, r.ok, r.busy, r.errors, r.unanswered,
      r.unsent, r.p50_ms, r.p99_ms, r.lag_p99_ms,
      r.generator_bound() ? "  GENERATOR-BOUND" : "",
      r.backlog_growing() ? "  BACKLOG" : "");
}

double rung_rate(int k) { return kLadderBase * std::pow(2.0, k / 4.0); }

/// Keeps every CPU busy with SCHED_IDLE spinners while alive. A spinner
/// runs only when nothing else is runnable and yields at once when a
/// server or generator thread wakes, so it takes no time from them; what
/// it removes is the wake-up latency of an idle (halted) virtual CPU, a
/// host effect that otherwise dominates sub-millisecond latencies.
class WarmCpus {
 public:
  explicit WarmCpus(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param sp{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &sp);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~WarmCpus() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  WarmCpus(const WarmCpus&) = delete;
  WarmCpus& operator=(const WarmCpus&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

Outcome run_serving(const Options& opt, bool routed) {
  Outcome out;
  std::filesystem::create_directories(opt.work_dir);
  if (::chdir(opt.work_dir.c_str()) != 0) {
    out.check(false, "cannot enter work directory " + opt.work_dir);
    return out;
  }
  // Scoring in this process (the expected values, the ml.score timing)
  // runs single-threaded like the daemon. The set-up children and the
  // server processes set their own thread count.
  ::setenv("IOTAX_THREADS", "1", 1);
  const std::size_t n_jobs = opt.smoke ? kSmokeJobs : kJobs;
  const std::size_t conns = std::max<std::size_t>(1, n_cpus() / 2);
  // Step lengths: smoke runs are short; full runs give each step a
  // share of --seconds.
  const double lo_s = opt.smoke ? 0.4 : std::max(2.0, 0.15 * opt.seconds);
  const double hi_s = opt.smoke ? 0.3 : std::max(1.0, 0.1 * opt.seconds);
  const double sat_s = opt.smoke ? 0.2 : std::max(0.5, 0.075 * opt.seconds);
  const double rung_s = opt.smoke ? 0.2 : std::max(0.5, 0.03 * opt.seconds);
  const std::size_t min_samples = opt.smoke ? 150 : 1000;
  const double grace_s = opt.smoke ? 0.5 : 1.0;
  std::uint64_t step_seed = opt.seed * 1000003ULL;
  const auto plan = [&](const std::string& name, double rate, double secs) {
    StepPlan p;
    p.name = name;
    p.rate = rate;
    p.seconds = secs;
    p.min_samples = min_samples;
    p.seed = ++step_seed;
    p.connections = conns;
    p.grace_s = grace_s;
    return p;
  };

  // ---- set-up, kSetupReps times: train in a forked child, then start
  // the server until it is ready and drain it again. Its cost is the CPU
  // time of those processes; the wall time is printed too. The server
  // the steps run against is started once more afterwards.
  std::vector<double> setup_cpu, setup_wall;
  const int reps = opt.trace || opt.smoke ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = wall_now();
    const auto child = in_child([&] { return prepare(n_jobs); });
    out.check(child.ok, "set-up: simulating and training failed");
    if (!child.ok) return out;
    Daemon d = start_daemon(opt, routed);
    setup_wall.push_back(wall_now() - t0);
    const Drained drained = stop_daemon(d, routed);
    out.check(drained.ok, "set-up: the server did not drain cleanly");
    setup_cpu.push_back(child.cpu_s + drained.cpu_s);
  }
  const RequestRows rows = load_rows();
  Daemon daemon = start_daemon(opt, routed);
  const std::string target = daemon.socket;

  Steps steps;
  const WarmCpus warm(n_cpus());
  const double steal0 = host_steal_s();
  const auto run = [&](const std::string& socket, const StepPlan& p,
                       bool counted = true) {
    const auto r = run_step(socket, rows, p);
    print_step(r);
    out.check(r.mismatched == 0,
              "step " + r.name + ": " + std::to_string(r.mismatched) +
                  " served value(s) differ from offline predict");
    steps.add(r, counted);
    return r;
  };

  if (!opt.trace) {
    StepPlan lo_plan = plan("lo", kLoRate, lo_s);
    lo_plan.corrupt_one = opt.corrupt == "served";
    const auto lo = run(target, lo_plan);
    const auto hi = run(target, plan("hi", kHiRate, hi_s));

    // Capacity: the median of closed-loop windows. Server CPU is read
    // over all of them (/proc counts in 10 ms ticks).
    std::vector<double> sat_rps;
    std::size_t sat_ok = 0;
    const double sat_cpu0 = tree_cpu_s(daemon);
    for (int w = 0; w < kSatWindows; ++w) {
      const double cpu0 = tree_cpu_s(daemon), steal_w0 = host_steal_s();
      const auto sat = run_saturation(target, rows, conns, kSatDepth, sat_s,
                                      ++step_seed);
      std::printf("# step sat%-5d closed loop %zu x %zu  sent %6zu  ok %6zu "
                  " failed %zu  %.0f req/s  server cpu %.1f us/req  steal "
                  "%.2f s\n",
                  w, conns, kSatDepth, sat.sent, sat.ok, sat.failed,
                  sat.rate(),
                  1e6 * (tree_cpu_s(daemon) - cpu0) /
                      static_cast<double>(std::max<std::size_t>(1, sat.ok)),
                  host_steal_s() - steal_w0);
      out.check(sat.mismatched == 0,
                "saturation: " + std::to_string(sat.mismatched) +
                    " served value(s) differ from offline predict");
      steps.add_saturation(sat);
      sat_rps.push_back(sat.rate());
      sat_ok += sat.ok;
    }
    const double sat_cpu_s = tree_cpu_s(daemon) - sat_cpu0;
    // Failures count on the fixed-rate and saturation steps; the ladder
    // is meant to end on a rate the server cannot hold.
    out.attempted = steps.scheduled;
    out.failed = steps.failed();

    // Open-loop rate ladder, half an octave per rung, up to the first
    // rate the server does not keep up with (checked twice, so one host
    // hiccup does not end it early). max_rps is the highest rung that
    // also holds the p99 limit.
    double max_rps = 0.0;
    std::size_t n_rungs = 0;
    for (int k = 0; k <= kLadderMaxK; k += 2) {
      bool overloaded = true;
      for (int attempt = 0; attempt < 2 && overloaded; ++attempt) {
        const auto r = run(target,
                           plan("r" + std::to_string(k), rung_rate(k), rung_s),
                           /*counted=*/false);
        ++n_rungs;
        overloaded = r.overloaded();
        if (rung_passes(r)) max_rps = std::max(max_rps, r.rate);
      }
      if (overloaded) break;
    }
    // Self-test: a step far beyond any server's capacity, so the sender
    // blocks on server backpressure and the step ends with requests
    // unsent. The accounting checks below must still hold.
    if (opt.overload) {
      StepPlan flood = plan("flood", 1e6, 0.0);
      flood.min_samples = 50000;
      flood.grace_s = 0.25;
      run(target, flood, /*counted=*/false);
    }

    const double rss = tree_peak_rss_mb(daemon);
    const std::size_t n_procs = server_tree(daemon).size();
    const Drained drained = stop_daemon(daemon, routed);
    const double steal = host_steal_s() - steal0;
    out.check(drained.ok, "server did not drain cleanly or its stats line "
                          "is missing");
    // Exact accounting: every request the generator sent was answered
    // once by the server, and what the generator saw matches.
    const unsigned long long answered =
        drained.responses + drained.shed + drained.errors;
    out.check(answered == steps.all_sent,
              "server answered " + std::to_string(answered) + " of " +
                  std::to_string(steps.all_sent) + " requests sent");
    if (steps.all_unanswered == 0) {
      out.check(drained.responses == steps.all_ok,
                "server counted " + std::to_string(drained.responses) +
                    " responses, the generator " +
                    std::to_string(steps.all_ok));
    }
    if (routed) {
      out.check(drained.requests == steps.all_sent,
                "router admitted " + std::to_string(drained.requests) +
                    " of " + std::to_string(steps.all_sent) + " requests");
      if (drained.retries == 0) {
        out.check(drained.shard_responses == drained.responses,
                  "shard responses do not add up to routed responses");
      }
    }

    // Output quality: the served model's held-out error (served values
    // are bit-identical to offline predictions, checked per reply).
    std::vector<double> pred(rows.expect.size());
    std::memcpy(pred.data(), rows.expect.data(), pred.size() * sizeof(double));
    const double err_pct = iotax::ml::log_error_to_percent(
        iotax::ml::median_abs_log_error(rows.y, pred));

    out.gated["setup_s"] = {median(setup_cpu), "s", setup_cpu.size()};
    out.gated["cpu_us_per_item"] = {
        1e6 * sat_cpu_s / static_cast<double>(sat_ok), "us", sat_ok};
    out.gated["peak_rss_mb"] = {rss, "MiB", n_procs};
    out.gated["error_pct"] = {err_pct, "%", rows.n_rows()};
    out.gated["p50_ms.lo"] = {lo.p50_ms, "ms", lo.scheduled};
    out.extra["setup_wall_s"] = {median(setup_wall), "s", setup_wall.size()};
    out.extra["capacity_rps"] = {median(sat_rps), "req/s", sat_rps.size()};
    out.extra["p99_ms.lo"] = {lo.p99_ms, "ms", lo.scheduled};
    out.extra["p50_ms.hi"] = {hi.p50_ms, "ms", hi.scheduled};
    out.extra["p99_ms.hi"] = {hi.p99_ms, "ms", hi.scheduled};
    out.extra["max_rps"] = {max_rps, "req/s", n_rungs};
    out.extra["failed_frac"] = {
        static_cast<double>(out.failed) / static_cast<double>(out.attempted),
        "frac", static_cast<std::size_t>(out.attempted)};
    out.extra["loadgen.lag_ms.p99.lo"] = {lo.lag_p99_ms, "ms", lo.sent};
    out.extra["loadgen.lag_ms.p99.hi"] = {hi.lag_p99_ms, "ms", hi.sent};
    out.extra["loadgen.sent"] = {static_cast<double>(steps.all_sent), "count",
                                 1};
    out.extra["host.steal_s"] = {steal, "s", 1};
    out.extra["server_cpu_s.sat"] = {sat_cpu_s, "s", 1};
    return out;
  }

  // ---- traced run: per-step server counters come from a drain after
  // each step, so the daemon is restarted between steps. The first lo
  // step runs before any of that, as the untraced reference.
  const auto lo_plain = run(target, plan("lo", kLoRate, lo_s));
  const Drained d_plain = stop_daemon(daemon, routed);
  daemon = start_daemon(opt, routed);
  const auto lo = run(target, plan("lo", kLoRate, lo_s));
  const Drained d_lo = stop_daemon(daemon, routed);
  daemon = start_daemon(opt, routed);
  const auto hi = run(target, plan("hi", kHiRate, hi_s));
  const Drained d_hi = stop_daemon(daemon, routed);
  out.check(d_plain.ok && d_lo.ok && d_hi.ok,
            "server did not drain cleanly or its stats line is missing");
  for (const auto& [d, r] : {std::pair{&d_lo, &lo}, std::pair{&d_hi, &hi}}) {
    out.check(d->responses + d->shed + d->errors == r->sent &&
                  d->responses == r->ok,
              "step " + r->name + ": server accounting does not match the "
                                  "generator's");
  }
  out.attempted = steps.scheduled;
  out.failed = steps.failed();

  // One shard probed directly at the lo rate; the direct daemon is its
  // own shard.
  double shard_p50 = lo.p50_ms;
  if (routed) {
    daemon = start_daemon(opt, routed);
    shard_p50 = run("fleet/g0r0.sock", plan("shard", kLoRate, lo_s)).p50_ms;
    stop_daemon(daemon, routed);
  }

  // Scorer cost: Regressor::predict on a batch of the mean size the
  // server formed at the hi rate.
  const auto per_batch = [](const Drained& d) {
    return d.shard_batches > 0 ? static_cast<double>(d.shard_responses) /
                                     static_cast<double>(d.shard_batches)
                               : 0.0;
  };
  const auto batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(per_batch(d_hi))));
  iotax::data::Matrix xb(batch, rows.n_cols);
  for (std::size_t i = 0; i < batch; ++i) {
    const double* src = rows.x.data() + (i % rows.n_rows()) * rows.n_cols;
    std::copy(src, src + rows.n_cols, xb.mutable_row(i).data());
  }
  const auto model = iotax::ml::load_regressor_file(kModel);
  std::vector<double> per_row_us;
  for (int rep = 0; rep < 200; ++rep) {
    const double t0 = wall_now();
    const auto p = model->predict(xb);
    per_row_us.push_back(1e6 * (wall_now() - t0) / static_cast<double>(batch));
    out.check(p.size() == batch, "predict returned a short batch");
  }

  const double steal = host_steal_s() - steal0;
  auto& L = out.layers;
  L["serve.batches"] = {
      static_cast<double>(d_lo.shard_batches + d_hi.shard_batches), "count",
      2};
  L["serve.rows_per_batch.lo"] = {per_batch(d_lo), "rows", 1};
  L["serve.rows_per_batch.hi"] = {per_batch(d_hi), "rows", 1};
  L["serve.shed"] = {static_cast<double>(d_lo.shard_shed + d_hi.shard_shed),
                     "count", 2};
  L["serve.errors"] = {
      static_cast<double>(d_lo.shard_errors + d_hi.shard_errors), "count", 2};
  L["ml.score.us_per_row"] = {median(per_row_us), "us", per_row_us.size()};
  if (routed) {
    L["fleet.retries"] = {static_cast<double>(d_lo.retries + d_hi.retries),
                          "count", 2};
    L["fleet.failovers"] = {
        static_cast<double>(d_lo.failovers + d_hi.failovers), "count", 2};
    L["fleet.busy_retries"] = {
        static_cast<double>(d_lo.busy_retries + d_hi.busy_retries), "count",
        2};
    L["fleet.degraded"] = {static_cast<double>(d_lo.degraded + d_hi.degraded),
                           "count", 2};
    L["fleet.restarts"] = {static_cast<double>(d_lo.restarts + d_hi.restarts),
                           "count", 2};
  }
  L["fleet.shard_p50_ms.lo"] = {shard_p50, "ms", lo.sent};
  L["fleet.route_tax_ms.lo"] = {lo.p50_ms - shard_p50, "ms", lo.sent};
  L["loadgen.lag_ms.p99"] = {steps.lag_p99_ms, "ms", steps.all_sent};
  L["loadgen.sent"] = {static_cast<double>(steps.all_sent), "count", 1};
  L["host.steal_s"] = {steal, "s", 1};
  L["trace.overhead_pct"] = {
      100.0 * (lo.p50_ms - lo_plain.p50_ms) / lo_plain.p50_ms, "%", 2};
  return out;
}

}  // namespace perfbench
