#include "src/serve/fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/serve/client.hpp"

namespace iotax::serve {

using util::Deadline;
using util::FrameDecode;
using util::FrameHeader;
using util::FrameType;
using util::Reason;

std::size_t fleet_slot(const PredictRequest& req, std::size_t n_groups) {
  if (n_groups <= 1) return 0;
  // FNV-1a over the request's routing identity: the model index and the
  // feature doubles' exact bit patterns. Bit patterns, not values, so
  // -0.0 and 0.0 route consistently with how the answer is computed.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  mix(req.model_index);
  for (const double f : req.features) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    mix(bits);
  }
  return static_cast<std::size_t>(h % n_groups);
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

namespace {

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// One health probe: connect, ping, expect the matching pong, all
/// within `timeout_ms`. Any failure mode (refused, hung, garbage) is
/// simply "not healthy" — the caller decides whether that means dead
/// or hung by asking the process itself.
bool ping_endpoint(const Endpoint& ep, std::uint64_t timeout_ms,
                   std::uint64_t request_id) {
  try {
    Client conn = ep.kind == Endpoint::Kind::kUnix
                      ? Client::connect_unix(ep.path, timeout_ms)
                      : Client::connect_tcp(ep.host, ep.port, timeout_ms);
    conn.set_recv_timeout_ms(timeout_ms);
    conn.send_ping(request_id);
    Client::Reply reply;
    if (!conn.read_reply(&reply)) return false;
    return reply.type == FrameType::kPong && reply.request_id == request_id;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config) : config_(std::move(config)) {
  if (config_.n_groups == 0 || config_.n_replicas == 0) {
    throw std::invalid_argument("fleet: need >= 1 group and >= 1 replica");
  }
  if (config_.model_files.empty()) {
    throw std::invalid_argument("fleet: --models needs at least one file");
  }
  if (config_.shard_dir.empty()) {
    throw std::invalid_argument("fleet: shard_dir must be set");
  }
  if (config_.iotax_bin.empty()) {
    throw std::invalid_argument("fleet: iotax binary path must be set");
  }
  const std::size_t n_shards = config_.n_groups * config_.n_replicas;
  if (!config_.shard_ports.empty()) {
    if (config_.shard_ports.size() != n_shards) {
      throw std::invalid_argument(
          "fleet: got " + std::to_string(config_.shard_ports.size()) +
          " shard port(s) for " + std::to_string(n_shards) + " shard(s)");
    }
    std::set<int> distinct(config_.shard_ports.begin(),
                           config_.shard_ports.end());
    if (distinct.size() != config_.shard_ports.size()) {
      throw std::invalid_argument("fleet: duplicate shard ports");
    }
  }
  config_.restart_backoff.validate();
}

Supervisor::~Supervisor() { stop(); }

std::vector<Endpoint> Supervisor::group_endpoints(std::size_t group) const {
  std::vector<Endpoint> out;
  out.reserve(config_.n_replicas);
  for (std::size_t r = 0; r < config_.n_replicas; ++r) {
    if (config_.shard_ports.empty()) {
      out.push_back(Endpoint::unix_path(
          config_.shard_dir + "/g" + std::to_string(group) + "r" +
          std::to_string(r) + ".sock"));
    } else {
      out.push_back(Endpoint::tcp(
          "127.0.0.1",
          static_cast<std::uint16_t>(
              config_.shard_ports[group * config_.n_replicas + r])));
    }
  }
  return out;
}

std::vector<std::string> Supervisor::shard_argv(const Shard& shard) const {
  std::string models = config_.model_files[0];
  for (std::size_t i = 1; i < config_.model_files.size(); ++i) {
    models += "," + config_.model_files[i];
  }
  std::vector<std::string> argv = {config_.iotax_bin, "serve",
                                   "--models", models};
  if (shard.endpoint.kind == Endpoint::Kind::kUnix) {
    argv.push_back("--socket");
    argv.push_back(shard.endpoint.path);
  } else {
    argv.push_back("--port");
    argv.push_back(std::to_string(shard.endpoint.port));
  }
  argv.push_back("--batch-size");
  argv.push_back(std::to_string(config_.batch_size));
  argv.push_back("--batch-wait-us");
  argv.push_back(std::to_string(config_.batch_wait_us));
  argv.push_back("--max-inflight");
  argv.push_back(std::to_string(config_.max_inflight));
  argv.push_back("--ready-file");
  argv.push_back(shard.ready_file);
  return argv;
}

void Supervisor::spawn(Shard& shard) {
  ::unlink(shard.ready_file.c_str());
  const std::vector<std::string> argv = shard_argv(shard);
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fleet: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child: async-signal-safe calls only until exec. Shards die with
    // the supervisor (PDEATHSIG) so a crashed parent cannot leak a
    // daemon pack; stdout/err go to the per-shard log for post-mortems.
    // The shard starts with no signals blocked, whatever mask the
    // forking thread had (exec keeps it).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    sigset_t none;
    sigemptyset(&none);
    ::sigprocmask(SIG_SETMASK, &none, nullptr);
    const int log_fd = ::open(shard.log_file.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      if (log_fd > STDERR_FILENO) ::close(log_fd);
    }
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  shard.pid = pid;
  shard.state = ShardState::kUp;
  shard.ready_seen = false;
  n_spawns_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("fleet.spawns", 1);
}

void Supervisor::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("fleet: supervisor already running");
  }
  ::signal(SIGPIPE, SIG_IGN);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.clear();
    for (std::size_t g = 0; g < config_.n_groups; ++g) {
      const auto endpoints = group_endpoints(g);
      for (std::size_t r = 0; r < config_.n_replicas; ++r) {
        Shard shard;
        shard.group = g;
        shard.replica = r;
        shard.endpoint = endpoints[r];
        const std::string stem = config_.shard_dir + "/g" +
                                 std::to_string(g) + "r" + std::to_string(r);
        shard.ready_file = stem + ".ready";
        shard.log_file = stem + ".log";
        shard.rng = util::Rng(config_.seed).fork(g * config_.n_replicas + r);
        shards_.push_back(std::move(shard));
      }
    }
    for (auto& shard : shards_) spawn(shard);
  }
  // Startup is all-or-nothing: a shard that exits before its ready file
  // appears is a configuration error (bad checkpoint, unbindable
  // socket), not a runtime fault — refuse to run a degraded fleet.
  const Deadline deadline = Deadline::after_ms(config_.spawn_timeout_ms);
  while (true) {
    std::size_t ready = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& shard : shards_) {
        int status = 0;
        if (::waitpid(shard.pid, &status, WNOHANG) == shard.pid) {
          const pid_t pid = shard.pid;
          shard.pid = -1;
          stop_spawned_locked();
          throw std::runtime_error(
              "fleet: shard g" + std::to_string(shard.group) + "r" +
              std::to_string(shard.replica) + " (pid " + std::to_string(pid) +
              ") exited during startup; see " + shard.log_file);
        }
        if (!shard.ready_seen && file_exists(shard.ready_file)) {
          shard.ready_seen = true;
        }
        if (shard.ready_seen) ++ready;
      }
      if (ready == shards_.size()) break;
    }
    if (deadline.expired()) {
      std::lock_guard<std::mutex> lock(mu_);
      stop_spawned_locked();
      throw std::runtime_error(
          "fleet: not every shard became ready within " +
          std::to_string(config_.spawn_timeout_ms) + "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  monitor_ = std::thread([this] { monitor_loop(); });
}

void Supervisor::stop_spawned_locked() {
  for (auto& shard : shards_) {
    if (shard.pid > 0) {
      ::kill(shard.pid, SIGKILL);
      ::waitpid(shard.pid, nullptr, 0);
      shard.pid = -1;
    }
    ::unlink(shard.ready_file.c_str());
  }
}

void Supervisor::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  if (monitor_.joinable()) monitor_.join();
  std::lock_guard<std::mutex> lock(mu_);
  // Graceful first: SIGTERM lets each shard drain admitted requests.
  for (auto& shard : shards_) {
    if (shard.pid > 0) ::kill(shard.pid, SIGTERM);
  }
  const Deadline deadline = Deadline::after_ms(10000);
  for (auto& shard : shards_) {
    if (shard.pid <= 0) continue;
    while (::waitpid(shard.pid, nullptr, WNOHANG) == 0) {
      if (deadline.expired()) {
        // A shard that ignores SIGTERM (e.g. still SIGSTOPped) gets the
        // non-negotiable version.
        ::kill(shard.pid, SIGKILL);
        ::waitpid(shard.pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    shard.pid = -1;
    ::unlink(shard.ready_file.c_str());
  }
  running_.store(false, std::memory_order_release);
}

bool Supervisor::signal_shard(std::size_t group, std::size_t replica,
                              int sig) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& shard : shards_) {
    if (shard.group != group || shard.replica != replica) continue;
    if (shard.pid <= 0) return false;
    return ::kill(shard.pid, sig) == 0;
  }
  return false;
}

std::size_t Supervisor::live_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    if (shard.state == ShardState::kUp) ++n;
  }
  return n;
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.spawns = n_spawns_.load(std::memory_order_relaxed);
  s.restarts = n_restarts_.load(std::memory_order_relaxed);
  s.exits_detected = n_exits_.load(std::memory_order_relaxed);
  s.hangs_detected = n_hangs_.load(std::memory_order_relaxed);
  s.gave_up = n_gave_up_.load(std::memory_order_relaxed);
  return s;
}

void Supervisor::shard_down(Shard& shard, const char* why) {
  shard.pid = -1;
  shard.ready_seen = false;
  if (shard.restarts_used >= config_.restart_budget) {
    shard.state = ShardState::kFailed;
    n_gave_up_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.gave_up", 1);
    return;
  }
  ++shard.restarts_used;
  const std::uint64_t delay = util::backoff_delay_ms(
      config_.restart_backoff, shard.backoff_step++, shard.rng);
  shard.next_restart =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(delay);
  shard.state = ShardState::kRestarting;
  (void)why;
}

void Supervisor::monitor_loop() {
  std::uint64_t ping_id = 0x91a6'0000'0000'0000ULL;
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.health_interval_ms));
    const std::size_t n_shards = [this] {
      std::lock_guard<std::mutex> lock(mu_);
      return shards_.size();
    }();
    for (std::size_t i = 0; i < n_shards; ++i) {
      if (stopping_.load(std::memory_order_acquire)) return;
      // Snapshot under the lock; the slow work (ping, reap) happens
      // outside it so chaos signals and stats reads never stall behind
      // a health probe. Only this thread mutates shard state, so the
      // snapshot cannot go stale in between.
      ShardState state;
      pid_t pid;
      Endpoint endpoint;
      bool ready_seen;
      std::string ready_file;
      std::chrono::steady_clock::time_point next_restart;
      {
        std::lock_guard<std::mutex> lock(mu_);
        Shard& s = shards_[i];
        state = s.state;
        pid = s.pid;
        endpoint = s.endpoint;
        ready_seen = s.ready_seen;
        ready_file = s.ready_file;
        next_restart = s.next_restart;
      }
      if (state == ShardState::kFailed) continue;
      if (state == ShardState::kRestarting) {
        if (std::chrono::steady_clock::now() >= next_restart) {
          std::lock_guard<std::mutex> lock(mu_);
          spawn(shards_[i]);
          n_restarts_.fetch_add(1, std::memory_order_relaxed);
          IOTAX_OBS_COUNT("fleet.restarts", 1);
        }
        continue;
      }
      // kUp: did it die on its own?
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        n_exits_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.exits", 1);
        std::lock_guard<std::mutex> lock(mu_);
        shard_down(shards_[i], "exited");
        continue;
      }
      if (!ready_seen) {
        // Freshly (re)spawned: no health verdict until the listeners
        // are up, or a crash-during-startup would read as a hang.
        if (file_exists(ready_file)) {
          std::lock_guard<std::mutex> lock(mu_);
          shards_[i].ready_seen = true;
          shards_[i].backoff_step = 0;  // it came back; restart the ladder
        }
        continue;
      }
      if (!ping_endpoint(endpoint, config_.health_timeout_ms, ++ping_id)) {
        // Alive but silent past the deadline: hung (e.g. SIGSTOP, dead-
        // locked). SIGKILL works even on a stopped process; the reap
        // below turns it into an ordinary restart.
        if (::kill(pid, 0) != 0) continue;  // raced an exit; next tick reaps
        n_hangs_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.hangs", 1);
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        std::lock_guard<std::mutex> lock(mu_);
        shard_down(shards_[i], "hung");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

struct Router::Session {
  int fd = -1;
  std::size_t index = 0;  // connection ordinal, rotates replica preference
  std::mutex write_mu;
  std::atomic<bool> dead{false};
  /// Per-group backhaul, created on first use. Only the session's own
  /// reader thread touches these (chaos "drop" fires on the triggering
  /// session), so they need no lock.
  std::vector<std::unique_ptr<RetryingClient>> backhaul;

  ~Session() {
    if (fd >= 0) ::close(fd);
  }
};

namespace {

int router_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("fleet: unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("fleet: socket(AF_UNIX) failed");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("fleet: cannot listen on unix socket " + path +
                             ": " + std::strerror(err));
  }
  return fd;
}

int router_tcp_listener(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("fleet: socket(AF_INET) failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("fleet: cannot listen on TCP port " +
                             std::to_string(port) + ": " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

Router::Router(RouterConfig config) : config_(std::move(config)) {}

Router::~Router() { stop(); }

void Router::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("fleet: router already running");
  }
  ::signal(SIGPIPE, SIG_IGN);
  const bool have_supervisor = config_.supervisor != nullptr;
  const bool have_static = !config_.static_groups.empty();
  if (have_supervisor == have_static) {
    throw std::invalid_argument(
        "fleet: router needs exactly one shard source "
        "(supervisor or static groups)");
  }
  groups_.clear();
  if (have_supervisor) {
    if (!config_.supervisor->running()) {
      throw std::runtime_error("fleet: supervisor is not running");
    }
    for (std::size_t g = 0; g < config_.supervisor->n_groups(); ++g) {
      groups_.push_back(config_.supervisor->group_endpoints(g));
    }
  } else {
    groups_ = config_.static_groups;
  }
  for (const auto& group : groups_) {
    if (group.empty()) {
      throw std::invalid_argument("fleet: a replica group has no endpoints");
    }
  }
  if (config_.deadline_ms == 0) {
    throw std::invalid_argument("fleet: deadline_ms must be > 0");
  }
  config_.retry_backoff.validate();
  for (const auto& event : config_.chaos.events) {
    if (event.group >= groups_.size() ||
        event.replica >= groups_[event.group].size()) {
      throw std::invalid_argument(
          "fleet: chaos event targets shard g" + std::to_string(event.group) +
          "r" + std::to_string(event.replica) + " outside the topology");
    }
    if ((event.action == faults::ChaosAction::kKill ||
         event.action == faults::ChaosAction::kHang) &&
        !have_supervisor) {
      throw std::invalid_argument(
          "fleet: kill/hang chaos events need a supervisor");
    }
  }
  config_.chaos.validate();
  chaos_cursor_ = 0;

  if (!config_.unix_socket.empty()) {
    unix_fd_ = router_unix_listener(config_.unix_socket);
  }
  if (config_.tcp_port >= 0) {
    tcp_fd_ = router_tcp_listener(config_.tcp_port, &bound_tcp_port_);
  }
  if (unix_fd_ < 0 && tcp_fd_ < 0) {
    throw std::runtime_error("fleet: no listener configured "
                             "(need --socket and/or --port)");
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Router::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(config_.unix_socket.c_str());
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& weak : sessions_) {
      if (const auto session = weak.lock()) {
        ::shutdown(session->fd, SHUT_RD);
      }
    }
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    readers.swap(session_threads_);
  }
  for (auto& t : readers) t.join();
  running_.store(false, std::memory_order_release);
}

FleetStats Router::stats() const {
  FleetStats s;
  s.connections = n_connections_.load(std::memory_order_relaxed);
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.responses = n_responses_.load(std::memory_order_relaxed);
  s.errors = n_errors_.load(std::memory_order_relaxed);
  s.retries = retry_counters_.retries.load(std::memory_order_relaxed);
  s.failovers = retry_counters_.failovers.load(std::memory_order_relaxed);
  s.busy_retries =
      retry_counters_.busy_retries.load(std::memory_order_relaxed);
  s.degraded = retry_counters_.degraded.load(std::memory_order_relaxed);
  s.chaos_kills = n_chaos_kills_.load(std::memory_order_relaxed);
  s.chaos_hangs = n_chaos_hangs_.load(std::memory_order_relaxed);
  s.chaos_drops = n_chaos_drops_.load(std::memory_order_relaxed);
  s.chaos_delays = n_chaos_delays_.load(std::memory_order_relaxed);
  return s;
}

util::QuarantineReport Router::quarantine() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantine_;
}

void Router::note_quarantine(Reason reason, const std::string& detail) {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  util::QuarantineEntry entry;
  entry.reason = reason;
  entry.detail = detail;
  quarantine_.add(std::move(entry));
}

bool Router::write_frame(Session& session, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(session.write_mu);
  if (session.dead.load(std::memory_order_relaxed)) return false;
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::send(session.fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      session.dead.store(true, std::memory_order_relaxed);
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

void Router::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    int n_fds = 0;
    if (unix_fd_ >= 0) fds[n_fds++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n_fds++] = {tcp_fd_, POLLIN, 0};
    const int rc = ::poll(fds, static_cast<nfds_t>(n_fds), 100);
    if (rc <= 0) continue;
    for (int i = 0; i < n_fds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept4(fds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd < 0) continue;
      auto session = std::make_shared<Session>();
      session->fd = cfd;
      session->index = static_cast<std::size_t>(
          n_connections_.fetch_add(1, std::memory_order_relaxed));
      IOTAX_OBS_COUNT("fleet.connections", 1);
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(session);
      session_threads_.emplace_back(
          [this, session = std::move(session)] { session_loop(session); });
    }
  }
}

void Router::session_loop(std::shared_ptr<Session> session) {
  if (config_.chaos.accept_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.chaos.accept_delay_ms));
  }
  std::vector<std::uint8_t> buf;
  std::size_t start = 0;
  std::uint8_t chunk[16384];
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{session->fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    const ssize_t n = ::recv(session->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      if (start < buf.size() && !stopping_.load(std::memory_order_acquire)) {
        note_quarantine(Reason::kTruncated,
                        "connection closed inside a frame (" +
                            std::to_string(buf.size() - start) +
                            " byte(s) of partial frame)");
        ErrorResponse err;
        err.status = ServeStatus::kBadFrame;
        err.reason = Reason::kTruncated;
        err.detail = "truncated frame";
        write_frame(*session, encode_error_response(err));
        n_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    buf.insert(buf.end(), chunk, chunk + n);
    bool close_session = false;
    while (true) {
      const auto view = std::span<const std::uint8_t>(buf).subspan(start);
      const FrameDecode dec = util::decode_frame(view);
      if (dec.status == FrameDecode::Status::kNeedMore) break;
      if (dec.status == FrameDecode::Status::kBad) {
        note_quarantine(dec.reason, dec.detail);
        ErrorResponse err;
        err.status = ServeStatus::kBadFrame;
        err.reason = dec.reason;
        err.detail = dec.detail;
        write_frame(*session, encode_error_response(err));
        n_errors_.fetch_add(1, std::memory_order_relaxed);
        close_session = true;
        break;
      }
      const auto payload =
          view.subspan(FrameHeader::kWireSize, dec.header.payload_len);
      if (!handle_frame(session, dec.header, payload)) {
        close_session = true;
        break;
      }
      start += dec.consumed;
    }
    if (close_session) break;
    if (start > 4096 && start * 2 > buf.size()) {
      buf.erase(buf.begin(), buf.begin() + static_cast<long>(start));
      start = 0;
    }
  }
}

void Router::apply_chaos(std::uint64_t request_count, Session& session) {
  if (config_.chaos.events.empty()) return;
  std::vector<faults::ChaosEvent> due;
  {
    std::lock_guard<std::mutex> lock(chaos_mu_);
    while (chaos_cursor_ < config_.chaos.events.size() &&
           config_.chaos.events[chaos_cursor_].at_request <= request_count) {
      due.push_back(config_.chaos.events[chaos_cursor_++]);
    }
  }
  for (const auto& event : due) {
    switch (event.action) {
      case faults::ChaosAction::kKill:
        config_.supervisor->signal_shard(event.group, event.replica, SIGKILL);
        n_chaos_kills_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.chaos_kills", 1);
        break;
      case faults::ChaosAction::kHang:
        config_.supervisor->signal_shard(event.group, event.replica, SIGSTOP);
        n_chaos_hangs_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.chaos_hangs", 1);
        break;
      case faults::ChaosAction::kDrop:
        if (event.group < session.backhaul.size() &&
            session.backhaul[event.group]) {
          session.backhaul[event.group]->disconnect();
        }
        n_chaos_drops_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.chaos_drops", 1);
        break;
      case faults::ChaosAction::kDelay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(event.delay_ms));
        n_chaos_delays_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("fleet.chaos_delays", 1);
        break;
    }
  }
}

bool Router::handle_frame(const std::shared_ptr<Session>& session,
                          const FrameHeader& header,
                          std::span<const std::uint8_t> payload) {
  switch (static_cast<FrameType>(header.type)) {
    case FrameType::kPing:
      // The router answers for itself: a pong means "the front door is
      // up", not "every shard is up" — per-shard health is the
      // supervisor's job.
      write_frame(*session, encode_pong(header.request_id));
      return true;
    case FrameType::kPredictRequest:
      break;
    case FrameType::kControlRequest: {
      // Promote/rollback address one registry, and the fleet has N of
      // them. Routing a mutation to a hash-picked shard would fork the
      // replicas' state; refuse loudly instead.
      ErrorResponse err;
      err.request_id = header.request_id;
      err.status = ServeStatus::kBadRequest;
      err.detail = "control operations are not routed; "
                   "address a shard directly";
      write_frame(*session, encode_error_response(err));
      n_errors_.fetch_add(1, std::memory_order_relaxed);
      IOTAX_OBS_COUNT("fleet.errors", 1);
      return true;
    }
    default: {
      note_quarantine(Reason::kMalformedHeader,
                      "unexpected frame type " + std::to_string(header.type));
      ErrorResponse err;
      err.request_id = header.request_id;
      err.status = ServeStatus::kBadFrame;
      err.reason = Reason::kMalformedHeader;
      err.detail = "unexpected frame type";
      write_frame(*session, encode_error_response(err));
      n_errors_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }

  PredictRequest req;
  ErrorResponse err;
  if (!decode_predict_request(header, payload, &req, &err)) {
    note_quarantine(*err.reason, err.detail);
    write_frame(*session, encode_error_response(err));
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const std::uint64_t count =
      n_requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  IOTAX_OBS_COUNT("fleet.requests", 1);
  apply_chaos(count, *session);

  const std::size_t slot = fleet_slot(req, groups_.size());
  if (session->backhaul.empty()) session->backhaul.resize(groups_.size());
  auto& client = session->backhaul[slot];
  if (!client) {
    // Rotate the replica preference by connection ordinal so concurrent
    // sessions spread across a group instead of all camping on r0.
    std::vector<Endpoint> endpoints = groups_[slot];
    std::rotate(endpoints.begin(),
                endpoints.begin() +
                    static_cast<long>(session->index % endpoints.size()),
                endpoints.end());
    RetryPolicy policy;
    policy.deadline_ms = config_.deadline_ms;
    policy.try_timeout_ms = config_.try_timeout_ms;
    policy.backoff = config_.retry_backoff;
    client = std::make_unique<RetryingClient>(
        std::move(endpoints), policy,
        util::Rng(config_.seed ^ config_.chaos.seed)
            .fork(session->index * 131 + slot),
        &retry_counters_);
  }

  RetryingClient::Result result = client->predict(req);
  if (result.ok) {
    write_frame(*session, encode_predict_response(result.response));
    n_responses_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.responses", 1);
    return true;
  }
  if (result.error.status == ServeStatus::kDegraded) {
    note_quarantine(result.error.reason.value_or(Reason::kDeadlineExpired),
                    result.error.detail);
    IOTAX_OBS_COUNT("fleet.degraded", 1);
  }
  write_frame(*session, encode_error_response(result.error));
  n_errors_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("fleet.errors", 1);
  return true;
}

}  // namespace iotax::serve
