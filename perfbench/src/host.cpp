#include <dirent.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "src/sim/presets.hpp"

namespace perfbench {

iotax::sim::SimConfig theta_scaled(std::size_t n_jobs) {
  auto cfg = iotax::sim::theta_like(kThetaSeed);
  const double f = static_cast<double>(n_jobs) /
                   static_cast<double>(cfg.workload.n_jobs);
  cfg.workload.n_jobs = n_jobs;
  cfg.workload.horizon *= f;
  cfg.weather.horizon *= f;
  cfg.catalog.horizon *= f;
  return cfg;
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

double wall_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double pid_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // The command name may hold spaces; fields resume after its ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  // Fields 3.. follow; utime and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  double v[8] = {};
  for (double& x : v) {
    if (!(in >> x)) return 0.0;
  }
  return v[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool catches_signal(pid_t pid, int sig) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("SigCgt:", 0) == 0) {
      const auto mask = std::strtoull(line.c_str() + 7, nullptr, 16);
      return ((mask >> (sig - 1)) & 1ULL) != 0;
    }
  }
  return false;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  return static_cast<bool>(out.flush());
}

std::vector<pid_t> child_pids(pid_t parent) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream in(std::string("/proc/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string state;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == parent && state != "Z") {
      out.push_back(static_cast<pid_t>(std::atol(e->d_name)));
    }
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t n_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

ChildExit wait_child(pid_t pid) {
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) return {};
  }
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {WIFEXITED(status) && WEXITSTATUS(status) == 0,
          secs(ru.ru_utime) + secs(ru.ru_stime)};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Digest::add_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) { add_bytes(&v, sizeof v); }
void Digest::add(std::uint64_t v) { add_bytes(&v, sizeof v); }
void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  add_bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
