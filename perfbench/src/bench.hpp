// Shared pieces of the iotax end-to-end benchmark: run options, the
// outcome every workload fills in, and host probes (CPU time, steal,
// resident-set high-water marks) read from /proc.
#pragma once

#include <sys/types.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/sim/simulator.hpp"

namespace perfbench {

/// Simulation seed of the Theta-like system every workload uses. The
/// run's --seed drives the serving traffic, not the system: the model
/// error of a simulated system swings from 7% to 12% between simulation
/// seeds, which no regression bound could hold.
constexpr std::uint64_t kThetaSeed = 7;

/// The Theta-like preset scaled to `n_jobs` jobs over a proportionally
/// shorter horizon, so the workload keeps the full system's mix (the
/// daily benchmark pair, ~24% duplicate jobs) at a fraction of its size.
iotax::sim::SimConfig theta_scaled(std::size_t n_jobs);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short steps: every workload finishes in seconds.
  bool smoke = false;
  /// Fault injection for the benchmark's own test: "served" flips one
  /// bit of one served value, "report" perturbs the offline report;
  /// either must make the run fail its correctness checks.
  std::string corrupt;
  /// Serving self-test: end the run with a step far beyond the server's
  /// capacity, so requests go unsent under backpressure.
  bool overload = false;
  std::string iotax_bin;  // the CLI that serving shards are exec'd from
  std::string work_dir;   // scratch space inside the checkout
  std::string rev;        // source revision (provenance only)
};

/// One measured figure with its unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a workload run produces. `gated` holds the BENCHMARK.json
/// end-to-end metrics, `layers` the per-layer metrics of a traced run,
/// and `extra` the workload's own named figures (printed, not gated).
struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> gated;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> extra;
  std::map<std::string, std::string> notes;  // digests and the like

  /// Record a correctness check; a false one fails the whole run.
  void check(bool ok, const std::string& what);
};

Outcome run_offline(const Options& opt);
Outcome run_serving(const Options& opt, bool routed);

// ---- host probes -------------------------------------------------------

double wall_now();
/// User+system CPU seconds of this process (all threads).
double process_cpu_s();
/// User+system CPU seconds of another process (0 when it is gone).
double pid_cpu_s(pid_t pid);
/// Host-wide CPU steal seconds since boot (/proc/stat), summed over CPUs.
double host_steal_s();
/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mb(pid_t pid);
/// Whether a process has a handler installed for `sig` (SigCgt).
bool catches_signal(pid_t pid, int sig);
/// Reset this process's VmHWM to its current RSS (clear_refs 5), so a
/// later peak_rss_mb covers only what follows. False when unsupported.
bool reset_peak_rss();
/// Live children of a process (e.g. the shards a fleet exec'd).
std::vector<pid_t> child_pids(pid_t parent);
/// Number of online CPUs.
std::size_t n_cpus();

/// How a child process ended, and the user+system CPU seconds it and
/// the children it reaped used over their lives.
struct ChildExit {
  bool ok = false;  // exited with status 0
  double cpu_s = 0.0;
};
ChildExit wait_child(pid_t pid);

double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);

/// FNV-1a accumulator over bit patterns (the offline report digest).
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n);
  void add(double v);
  void add(std::uint64_t v);
  void add(const std::string& s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Run `fn` in a forked child and wait for it; ok when it returned true.
/// Keeps set-up work (simulation, training) out of the timed process's
/// resident-set peak, and measures its CPU time. The caller must not
/// have started thread-pool workers: the child would wait on workers it
/// lacks.
template <typename Fn>
ChildExit in_child(Fn&& fn) {
  const pid_t pid = ::fork();
  if (pid < 0) return {};
  if (pid == 0) {
    int rc = 1;
    try {
      rc = fn() ? 0 : 1;
    } catch (...) {
      rc = 1;
    }
    std::_Exit(rc);
  }
  return wait_child(pid);
}

}  // namespace perfbench
