#include "src/serve/fleet.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_map>

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
  bool already_stopping;
  {
    // Set under mu_: the monitor re-checks the flag under mu_ before it
    // spawns a shard or counts an exit or a hang.
    std::lock_guard<std::mutex> lock(mu_);
    already_stopping = stopping_.exchange(true);
  }
  if (already_stopping) {
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  // The monitor drains every shard before it exits (drain_shards).
  if (monitor_.joinable()) monitor_.join();
  running_.store(false, std::memory_order_release);
}

void Supervisor::drain_shards() {
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
  std::size_t n_shards;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n_shards = shards_.size();
  }
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.health_interval_ms));
    for (std::size_t i = 0;
         i < n_shards && !stopping_.load(std::memory_order_acquire); ++i) {
      check_shard(i, ping_id);
    }
  }
  // Restarted shards were forked by this thread, and PR_SET_PDEATHSIG
  // SIGKILLs them when it ends: they must be drained from here.
  drain_shards();
}

void Supervisor::check_shard(std::size_t i, std::uint64_t& ping_id) {
  // Snapshot under the lock; the slow work (ping, reap) happens outside
  // it so chaos signals and stats reads never stall behind a health
  // probe. Only this thread mutates shard state, so the snapshot cannot
  // go stale in between. Every mutation re-checks stopping_ under the
  // lock: once stop() has begun, nothing is spawned or counted.
  ShardState state;
  pid_t pid;
  Endpoint endpoint;
  bool ready_seen;
  std::string ready_file;
  std::chrono::steady_clock::time_point next_restart;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Shard& s = shards_[i];
    state = s.state;
    pid = s.pid;
    endpoint = s.endpoint;
    ready_seen = s.ready_seen;
    ready_file = s.ready_file;
    next_restart = s.next_restart;
  }
  if (state == ShardState::kFailed) return;
  if (state == ShardState::kRestarting) {
    if (std::chrono::steady_clock::now() < next_restart) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) return;
    spawn(shards_[i]);
    n_restarts_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.restarts", 1);
    return;
  }
  // kUp: did it die on its own?
  int status = 0;
  if (::waitpid(pid, &status, WNOHANG) == pid) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_[i].pid = -1;  // reaped; the drain must not wait for it
    if (stopping_.load(std::memory_order_acquire)) return;
    n_exits_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("fleet.exits", 1);
    shard_down(shards_[i], "exited");
    return;
  }
  if (!ready_seen) {
    // Freshly (re)spawned: no health verdict until the listeners are
    // up, or a crash-during-startup would read as a hang.
    if (file_exists(ready_file)) {
      std::lock_guard<std::mutex> lock(mu_);
      shards_[i].ready_seen = true;
      shards_[i].backoff_step = 0;  // it came back; restart the ladder
    }
    return;
  }
  if (ping_endpoint(endpoint, config_.health_timeout_ms, ++ping_id)) return;
  // Alive but silent past the deadline: hung (e.g. SIGSTOP, deadlocked).
  // SIGKILL works even on a stopped process; the reap turns it into an
  // ordinary restart.
  if (::kill(pid, 0) != 0) return;  // raced an exit; next tick reaps
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load(std::memory_order_acquire)) return;
  n_hangs_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("fleet.hangs", 1);
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  shard_down(shards_[i], "hung");
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Endpoint Endpoint::unix_path(std::string p) {
  return {Kind::kUnix, std::move(p), {}, 0};
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  return {Kind::kTcp, {}, std::move(host), port};
}

std::string Endpoint::describe() const {
  return kind == Kind::kUnix ? "unix:" + path
                             : host + ":" + std::to_string(port);
}

namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::milliseconds;

/// Start a non-blocking connect; -1 with *why on failure. A TCP
/// handshake may still be running: writes wait for it (EAGAIN), and a
/// refusal surfaces as a read error.
int connect_nonblocking(const Endpoint& ep, std::string* why) {
  sockaddr_un un{};
  sockaddr_in in{};
  sockaddr* addr = reinterpret_cast<sockaddr*>(&un);
  socklen_t len = sizeof(un);
  un.sun_family = AF_UNIX;
  std::strncpy(un.sun_path, ep.path.c_str(), sizeof(un.sun_path) - 1);
  if (ep.kind == Endpoint::Kind::kTcp) {
    addr = reinterpret_cast<sockaddr*>(&in);
    len = sizeof(in);
    in.sin_family = AF_INET;
    in.sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &in.sin_addr) != 1) {
      *why = "not a numeric IPv4 address: " + ep.host;
      return -1;
    }
  }
  const int fd = ::socket(addr->sa_family,
                          SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd >= 0 && (::connect(fd, addr, len) == 0 || errno == EINPROGRESS)) {
    return fd;
  }
  *why = "cannot connect to " + ep.describe() + ": " + std::strerror(errno);
  if (fd >= 0) ::close(fd);
  return -1;
}

/// One send() of as much of `out` as the socket takes; false when the
/// connection is broken.
bool send_some(int fd, std::string* out) {
  const ssize_t n =
      ::send(fd, out->data(), out->size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  if (n >= 0) out->erase(0, static_cast<std::size_t>(n));
  return n >= 0 || errno == EAGAIN || errno == EINTR;
}

std::string_view as_chars(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

/// The router's event loop. One thread owns every front connection and
/// one backhaul connection per replica. A forwarded request carries a
/// router-assigned id on the backhaul, and `pending` maps that id back
/// to the front session and the client's own id. Each request is a
/// small state machine: on the wire under a try deadline, or waiting on
/// a timer (retry back-off, chaos delay) for its next try.
struct Router::Loop {
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::uint64_t kIdMask = (1ULL << 56) - 1;
  /// Stop reading a client whose unsent replies pile up past this.
  static constexpr std::size_t kMaxFrontOut = 1 << 20;
  /// Why a try ended without an answer the client may see.
  enum class Failure { kTimeout, kReset, kShuttingDown, kBusy, kDrop };
  /// An epoll event's high byte says what its fd is; the rest is an id.
  enum Tag : std::uint64_t { kListener = 1, kFront, kBack };

  struct Conn {
    int fd = -1;
    util::FrameReader in;
    std::string out;
    std::uint32_t events = 0;  // epoll interest registered now
    bool dirty = false;        // output queued during this wake-up
  };
  struct Session : Conn {
    std::size_t pending = 0;          // admitted, not yet answered
    std::vector<std::size_t> prefer;  // replica per group; follows failover
    bool reading = false;  // off until the accept delay, and after EOF
    bool eof = false;
    bool blocked = false;  // waits for a backhaul below max_inflight
  };
  struct Backhaul : Conn {
    Endpoint endpoint;
    std::size_t outstanding = 0;
    /// (request id, try deadline) in send order. Every try gets the same
    /// timeout, so the front holds the earliest deadline; tries that
    /// ended otherwise are skipped when they reach the front.
    std::deque<std::pair<std::uint64_t, Clock::time_point>> tries;
    std::vector<std::uint64_t> blocked;  // sessions paused on this one
  };
  struct Request {
    std::uint64_t session = 0;
    std::uint64_t client_id = 0;
    std::string frame;  // as the client sent it; the id is patched per try
    std::size_t group = 0;
    std::size_t replica = 0;
    std::size_t backhaul = kNone;  // set while a try is on the wire
    std::size_t attempts = 0;
    std::size_t backoff_step = 0;
    Clock::time_point deadline;
    Reason last_reason = Reason::kDeadlineExpired;
    std::string last_detail = "no attempt completed";
  };
  /// When a request's next try is due, or (id tag(kFront, session))
  /// when a session's chaos accept delay ends.
  using Timer = std::pair<Clock::time_point, std::uint64_t>;

  Router& router;
  const RouterConfig& config;
  const std::size_t max_inflight;
  std::vector<std::size_t> first_backhaul;  // per group
  int ep = -1;
  std::atomic<bool> stop_requested{false};  // polled at least every 100 ms
  bool draining = false;
  Clock::time_point now = Clock::now();
  Clock::time_point drain_until;

  std::unordered_map<std::uint64_t, Session> sessions;
  std::vector<Backhaul> backhauls;
  std::unordered_map<std::uint64_t, Request> pending;  // by backhaul id
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
  std::vector<std::uint64_t> dirty;   // tags of connections with output
  std::vector<std::uint64_t> resume;  // unblocked sessions to re-parse
  std::uint64_t next_session = 0;
  std::uint64_t next_id = 0;
  std::size_t chaos_cursor = 0;
  util::Rng rng;
  PredictRequest decoded;  // reused across frames

  explicit Loop(Router& r)
      : router(r),
        config(r.config_),
        max_inflight(r.config_.supervisor != nullptr
                         ? r.config_.supervisor->config().max_inflight
                         : ServeConfig{}.max_inflight),
        rng(r.config_.seed ^ r.config_.chaos.seed) {
    for (const auto& group : router.groups_) {
      first_backhaul.push_back(backhauls.size());
      for (const auto& endpoint : group) {
        backhauls.emplace_back().endpoint = endpoint;
      }
    }
    ep = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep < 0) throw std::runtime_error("fleet: epoll_create1 failed");
    for (const int fd : {router.listeners_.unix_fd, router.listeners_.tcp_fd}) {
      if (fd >= 0) ctl(EPOLL_CTL_ADD, fd, EPOLLIN, tag(kListener, fd));
    }
  }

  ~Loop() {
    for (const auto& [id, s] : sessions) ::close(s.fd);
    for (const auto& bh : backhauls) {
      if (bh.fd >= 0) ::close(bh.fd);
    }
    ::close(ep);
  }

  static std::uint64_t tag(Tag t, std::uint64_t id) {
    return static_cast<std::uint64_t>(t) << 56 | id;
  }

  void ctl(int op, int fd, std::uint32_t events, std::uint64_t data) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = data;
    ::epoll_ctl(ep, op, fd, &ev);
  }

  /// Point a connection's epoll interest at `events` (a syscall only
  /// when it changes).
  void want(Conn& c, std::uint32_t events, std::uint64_t t) {
    if (c.events == events) return;
    c.events = events;
    ctl(EPOLL_CTL_MOD, c.fd, events, t);
  }

  void mark(Conn& c, std::uint64_t t) {
    if (c.dirty) return;
    c.dirty = true;
    dirty.push_back(t);
  }

  static std::uint64_t bump(std::uint64_t& counter) {
    return std::atomic_ref(counter).fetch_add(1, std::memory_order_relaxed) +
           1;
  }

  void run() {
    epoll_event events[128];
    while (true) {
      if (!draining && stop_requested.load(std::memory_order_acquire)) {
        begin_drain();
      }
      if (draining &&
          (now >= drain_until ||
           (pending.empty() &&
            std::all_of(sessions.begin(), sessions.end(),
                        [](const auto& kv) { return kv.second.out.empty(); }))))
        return;
      const int n = ::epoll_wait(ep, events, 128, wait_ms());
      now = Clock::now();
      for (int i = 0; i < n; ++i) {
        const std::uint64_t t = events[i].data.u64;
        const std::uint64_t id = t & kIdMask;
        switch (t >> 56) {
          case kListener:
            accept_all(static_cast<int>(id));
            break;
          case kFront:
            on_front(id, events[i].events);
            break;
          case kBack:
            on_backhaul(static_cast<std::size_t>(id), events[i].events);
            break;
        }
      }
      expire();
      while (!resume.empty()) {
        std::vector<std::uint64_t> ids;
        ids.swap(resume);
        for (const auto id : ids) {
          const auto it = sessions.find(id);
          if (it == sessions.end() || !it->second.blocked) continue;
          it->second.blocked = false;
          parse(id, it->second);
          settle(id, it->second);
        }
      }
      flush();
    }
  }

  int wait_ms() const {
    if (!resume.empty()) return 0;
    Clock::time_point next = now + Ms(100);
    for (const auto& bh : backhauls) {
      if (!bh.tries.empty()) next = std::min(next, bh.tries.front().second);
    }
    if (!timers.empty()) next = std::min(next, timers.top().first);
    return static_cast<int>(std::max<Ms::rep>(
        0, std::chrono::ceil<Ms>(next - Clock::now()).count()));
  }

  /// Stop accepting and reading; keep going until every admitted request
  /// is answered and written (or its deadline could not have held).
  void begin_drain() {
    draining = true;
    drain_until =
        now + Ms(config.deadline_ms + config.try_timeout_ms + 1000);
    for (const int fd : {router.listeners_.unix_fd, router.listeners_.tcp_fd}) {
      if (fd >= 0) ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
    }
    std::vector<std::uint64_t> ids;
    for (const auto& [id, s] : sessions) ids.push_back(id);
    for (const auto id : ids) settle(id, sessions.at(id));
  }

  // -- front sessions ---------------------------------------------------------

  void accept_all(int listen_fd) {
    int fd = -1;
    while ((fd = ::accept4(listen_fd, nullptr, nullptr,
                           SOCK_CLOEXEC | SOCK_NONBLOCK)) >= 0) {
      const std::uint64_t id = ++next_session;
      Session& s = sessions[id];
      s.fd = fd;
      // Rotate each group's replica preference by connection ordinal so
      // concurrent clients spread across a group.
      const auto index = bump(router.counts_.connections) - 1;
      IOTAX_OBS_COUNT("fleet.connections", 1);
      for (const auto& group : router.groups_) {
        s.prefer.push_back(static_cast<std::size_t>(index % group.size()));
      }
      ctl(EPOLL_CTL_ADD, fd, 0, tag(kFront, id));
      if (config.chaos.accept_delay_ms > 0) {
        timers.push({now + Ms(config.chaos.accept_delay_ms), tag(kFront, id)});
        continue;
      }
      s.reading = true;
      settle(id, s);
    }
  }

  void on_front(std::uint64_t id, std::uint32_t events) {
    const auto it = sessions.find(id);
    if (it == sessions.end()) return;
    Session& s = it->second;
    if ((events & EPOLLIN) && s.reading && !s.blocked && !draining) {
      const ssize_t n = s.in.read_from(s.fd);
      if (n < 0 && errno != EAGAIN) {
        close_front(id);
        return;
      }
      if (n == 0) {
        s.reading = false;
        s.eof = true;
      }
      parse(id, s);
    } else if (events & (EPOLLHUP | EPOLLERR)) {
      close_front(id);  // gone both ways: nobody left to answer
      return;
    }
    if (events & EPOLLOUT) mark(s, tag(kFront, id));
    settle(id, s);
  }

  /// Handle the whole frames buffered for `s` until it blocks.
  void parse(std::uint64_t id, Session& s) {
    while (!s.blocked && !draining) {
      const FrameDecode& dec = s.in.peek();
      if (dec.status == FrameDecode::Status::kNeedMore) break;
      if (dec.status == FrameDecode::Status::kBad) {
        // Framing is lost: answer the defect, read no further, close
        // once the requests already admitted are answered.
        refuse(id, s, 0, ServeStatus::kBadFrame, dec.reason, dec.detail);
        s.in.clear();
        s.reading = false;
        s.eof = true;
        return;
      }
      if (!handle(id, s, dec.header)) return;
      s.in.pop();
    }
    if (s.eof && !s.blocked && !draining && s.in.buffered() > 0) {
      refuse(id, s, 0, ServeStatus::kBadFrame, Reason::kTruncated,
             "truncated frame", s.in.truncation_detail());
      s.in.clear();
    }
  }

  /// One whole frame from a client. False when it has to wait: the
  /// backhaul it routes to has max_inflight requests outstanding.
  bool handle(std::uint64_t id, Session& s, const FrameHeader& header) {
    switch (static_cast<FrameType>(header.type)) {
      case FrameType::kPing:
        // A pong means "the front door is up", not "every shard is up":
        // shard health is the supervisor's job.
        s.out += encode_pong(header.request_id);
        mark(s, tag(kFront, id));
        return true;
      case FrameType::kPredictRequest:
        break;
      case FrameType::kControlRequest:
        // Promote/rollback address one registry, and the fleet has N of
        // them. Routing a mutation to a hash-picked shard would fork the
        // replicas' state; refuse loudly instead.
        refuse(id, s, header.request_id, ServeStatus::kBadRequest,
               std::nullopt,
               "control operations are not routed; address a shard "
               "directly");
        return true;
      default:
        refuse(id, s, header.request_id, ServeStatus::kBadFrame,
               Reason::kMalformedHeader, "unexpected frame type",
               "unexpected frame type " + std::to_string(header.type));
        return true;
    }
    ErrorResponse err;
    if (!decode_predict_request(header, s.in.payload(), &decoded, &err)) {
      refuse(id, s, header.request_id, err.status, err.reason, err.detail);
      return true;
    }
    const std::size_t group = fleet_slot(decoded, router.groups_.size());
    Backhaul& bh = backhauls[first_backhaul[group] + s.prefer[group]];
    if (bh.outstanding >= max_inflight) {
      // Overload pushes back on the sender: stop reading this client
      // until the replica's queue falls below its admission limit.
      s.blocked = true;
      bh.blocked.push_back(id);
      return false;
    }
    const std::uint64_t key = ++next_id;
    Request& rq = pending[key];
    rq.session = id;
    rq.client_id = header.request_id;
    rq.frame.assign(as_chars(s.in.frame()));
    rq.group = group;
    rq.replica = s.prefer[group];
    rq.deadline = now + Ms(config.deadline_ms);
    ++s.pending;
    IOTAX_OBS_COUNT("fleet.requests", 1);
    const std::uint64_t delay_ms = apply_chaos(bump(router.counts_.requests));
    if (delay_ms > 0) {
      timers.push({now + Ms(delay_ms), key});
    } else {
      send(key);
    }
    return true;
  }

  /// Answer a frame the router refuses itself. A refusal with a Reason
  /// enters the quarantine ledger, described by `why` when given.
  void refuse(std::uint64_t id, Session& s, std::uint64_t request_id,
              ServeStatus status, std::optional<Reason> reason,
              std::string detail, const std::string& why = {}) {
    if (reason) router.note_quarantine(*reason, why.empty() ? detail : why);
    s.out += encode_error_response(
        ErrorResponse{request_id, status, reason, std::move(detail)});
    mark(s, tag(kFront, id));
    bump(router.counts_.errors);
    IOTAX_OBS_COUNT("fleet.errors", 1);
  }

  /// Re-register the session's epoll interest, or close it once it has
  /// nothing left to read, answer or write.
  void settle(std::uint64_t id, Session& s) {
    if (s.pending == 0 && s.out.empty() &&
        (draining || (s.eof && !s.blocked))) {
      close_front(id);
      return;
    }
    const bool read = s.reading && !s.blocked && !draining &&
                      s.out.size() < kMaxFrontOut;
    want(s, (read ? EPOLLIN : 0u) | (s.out.empty() ? 0u : EPOLLOUT),
         tag(kFront, id));
  }

  void close_front(std::uint64_t id) {
    ::close(sessions.at(id).fd);
    sessions.erase(id);
  }

  // -- requests ---------------------------------------------------------------

  void send(std::uint64_t key) {
    Request& rq = pending.at(key);
    const std::size_t b = first_backhaul[rq.group] + rq.replica;
    Backhaul& bh = backhauls[b];
    if (rq.attempts++ > 0) {
      bump(router.counts_.retries);
      IOTAX_OBS_COUNT("fleet.retries", 1);
    }
    if (bh.fd < 0) {
      std::string why;
      bh.fd = connect_nonblocking(bh.endpoint, &why);
      if (bh.fd < 0) {
        fail(key, Failure::kReset, why);
        return;
      }
      bh.events = EPOLLIN;
      ctl(EPOLL_CTL_ADD, bh.fd, bh.events, tag(kBack, b));
    }
    util::patch_request_id(
        {reinterpret_cast<std::uint8_t*>(rq.frame.data()), rq.frame.size()},
        key);
    bh.out += rq.frame;
    bh.tries.emplace_back(key, now + Ms(config.try_timeout_ms));
    ++bh.outstanding;
    rq.backhaul = b;
    mark(bh, tag(kBack, b));
  }

  /// A try ended without an answer for the client. Schedule the next
  /// one (same replica for BUSY and drops, the next replica otherwise)
  /// under a fresh id, so a late reply to this try matches nothing; or,
  /// past the request's deadline, answer kDegraded.
  void fail(std::uint64_t key, Failure why, const std::string& detail) {
    Request& rq = pending.at(key);
    if (rq.backhaul != kNone) leave_backhaul(rq);
    std::uint64_t delay_ms = 0;
    if (why == Failure::kBusy) {
      // Transient admission-control shed: same replica, after a
      // jittered pause (its queue needs a moment, not a failover).
      bump(router.counts_.busy_retries);
      IOTAX_OBS_COUNT("fleet.busy_retries", 1);
      delay_ms = util::backoff_delay_ms(config.retry_backoff,
                                        rq.backoff_step++, rng);
    } else if (why != Failure::kDrop) {
      rq.last_reason = why == Failure::kTimeout ? Reason::kDeadlineExpired
                                                : Reason::kConnectionReset;
      rq.last_detail = detail;
      // Fail over; the client's later requests follow to the new replica.
      const std::size_t n = router.groups_[rq.group].size();
      if (n > 1) {
        rq.replica = (rq.replica + 1) % n;
        bump(router.counts_.failovers);
        IOTAX_OBS_COUNT("fleet.failovers", 1);
        const auto it = sessions.find(rq.session);
        if (it != sessions.end()) it->second.prefer[rq.group] = rq.replica;
      }
      // A dead replica fails fast (ECONNREFUSED); pace the retries so a
      // whole group mid-restart does not spin through the deadline.
      if (why == Failure::kReset) {
        delay_ms = util::backoff_delay_ms(config.retry_backoff,
                                          rq.backoff_step++, rng);
      }
    }
    if (now < rq.deadline) {
      auto node = pending.extract(key);
      node.key() = ++next_id;
      pending.insert(std::move(node));
      timers.push({std::min(rq.deadline, now + Ms(delay_ms)), next_id});
      return;
    }
    bump(router.counts_.degraded);
    IOTAX_OBS_COUNT("fleet.degraded", 1);
    router.note_quarantine(rq.last_reason, rq.last_detail);
    finish(key,
           encode_error_response(ErrorResponse{
               rq.client_id, ServeStatus::kDegraded, rq.last_reason,
               "replica group unavailable after " +
                   std::to_string(rq.attempts) +
                   " attempt(s): " + rq.last_detail}),
           true);
  }

  void leave_backhaul(Request& rq) {
    Backhaul& bh = backhauls[rq.backhaul];
    rq.backhaul = kNone;
    if (--bh.outstanding < max_inflight && !bh.blocked.empty()) {
      resume.insert(resume.end(), bh.blocked.begin(), bh.blocked.end());
      bh.blocked.clear();
    }
  }

  /// Queue the client's answer (already under its own id) and retire
  /// the request. A client that left gets nothing, but the request
  /// still counts as answered.
  void finish(std::uint64_t key, std::string_view reply, bool is_error) {
    const auto it = pending.find(key);
    bump(is_error ? router.counts_.errors : router.counts_.responses);
    if (is_error) IOTAX_OBS_COUNT("fleet.errors", 1);
    if (!is_error) IOTAX_OBS_COUNT("fleet.responses", 1);
    const auto sit = sessions.find(it->second.session);
    pending.erase(it);
    if (sit == sessions.end()) return;
    sit->second.out += reply;
    --sit->second.pending;
    mark(sit->second, tag(kFront, sit->first));
  }

  /// Fire every chaos event due at this admission count; returns how
  /// long to hold the admitted request (delay events).
  std::uint64_t apply_chaos(std::uint64_t count) {
    std::uint64_t delay_ms = 0;
    const auto& events = config.chaos.events;
    while (chaos_cursor < events.size() &&
           events[chaos_cursor].at_request <= count) {
      const auto& event = events[chaos_cursor++];
      switch (event.action) {
        case faults::ChaosAction::kKill:
          config.supervisor->signal_shard(event.group, event.replica, SIGKILL);
          bump(router.counts_.chaos_kills);
          IOTAX_OBS_COUNT("fleet.chaos_kills", 1);
          break;
        case faults::ChaosAction::kHang:
          config.supervisor->signal_shard(event.group, event.replica, SIGSTOP);
          bump(router.counts_.chaos_hangs);
          IOTAX_OBS_COUNT("fleet.chaos_hangs", 1);
          break;
        case faults::ChaosAction::kDrop:
          // Its in-flight requests go out again on a fresh connection.
          close_backhaul(first_backhaul[event.group] + event.replica,
                         Failure::kDrop, "chaos drop");
          bump(router.counts_.chaos_drops);
          IOTAX_OBS_COUNT("fleet.chaos_drops", 1);
          break;
        case faults::ChaosAction::kDelay:
          delay_ms += event.delay_ms;
          bump(router.counts_.chaos_delays);
          IOTAX_OBS_COUNT("fleet.chaos_delays", 1);
          break;
      }
    }
    return delay_ms;
  }

  // -- backhauls --------------------------------------------------------------

  void on_backhaul(std::size_t b, std::uint32_t events) {
    Backhaul& bh = backhauls[b];
    if (bh.fd < 0) return;
    if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      const ssize_t n = bh.in.read_from(bh.fd);
      if (n == 0 || (n < 0 && errno != EAGAIN)) {
        close_backhaul(b, Failure::kReset,
                       "connection to " + bh.endpoint.describe() + " " +
                           (n == 0 ? "closed" : std::strerror(errno)));
        return;
      }
      if (!relay_replies(b)) return;
    }
    if (events & EPOLLOUT) mark(bh, tag(kBack, b));
  }

  /// Match each whole reply frame to its request. False when the
  /// backhaul broke and was closed.
  bool relay_replies(std::size_t b) {
    Backhaul& bh = backhauls[b];
    while (true) {
      const FrameDecode& dec = bh.in.peek();
      if (dec.status == FrameDecode::Status::kNeedMore) return true;
      const auto it = pending.find(dec.header.request_id);
      const auto type = static_cast<FrameType>(dec.header.type);
      ErrorResponse err;
      std::string defect;
      if (dec.status == FrameDecode::Status::kBad) {
        defect = "malformed reply: " + dec.detail;
      } else if (it == pending.end() || it->second.backhaul != b) {
        // The answer to a try already given up on (its request went out
        // again under a new id): drop it.
        bump(router.counts_.late_replies);
        bh.in.pop();
        continue;
      } else if (type == FrameType::kErrorResponse &&
                 !decode_error_response(dec.header, bh.in.payload(), &err)) {
        defect = "unparseable error reply";
      } else if (type != FrameType::kErrorResponse &&
                 type != FrameType::kPredictResponse) {
        defect = "unexpected reply frame type " +
                 std::to_string(dec.header.type);
      }
      if (!defect.empty()) {
        close_backhaul(b, Failure::kReset,
                       defect + " from " + bh.endpoint.describe());
        return false;
      }
      const std::uint64_t key = it->first;
      if (type == FrameType::kErrorResponse &&
          (err.status == ServeStatus::kBusy ||
           err.status == ServeStatus::kShuttingDown)) {
        bh.in.pop();
        fail(key,
             err.status == ServeStatus::kBusy ? Failure::kBusy
                                              : Failure::kShuttingDown,
             bh.endpoint.describe() + " shutting down");
        continue;
      }
      // A prediction or a model-level verdict (bad request, unknown
      // model, internal) is the answer: passed through byte for byte,
      // under the client's id.
      leave_backhaul(it->second);
      const auto frame = bh.in.frame();
      util::patch_request_id(frame, it->second.client_id);
      finish(key, as_chars(frame), type == FrameType::kErrorResponse);
      bh.in.pop();
    }
  }

  void close_backhaul(std::size_t b, Failure why, const std::string& detail) {
    Backhaul& bh = backhauls[b];
    if (bh.fd >= 0) ::close(bh.fd);  // also leaves the epoll set
    bh.fd = -1;
    bh.events = 0;
    bh.in.clear();
    bh.out.clear();
    for (const auto& [key, at] : std::exchange(bh.tries, {})) {
      const auto it = pending.find(key);
      if (it != pending.end() && it->second.backhaul == b) {
        fail(key, why, detail);
      }
    }
  }

  // -- timers and writes ------------------------------------------------------

  void expire() {
    for (std::size_t b = 0; b < backhauls.size(); ++b) {
      auto& tries = backhauls[b].tries;
      while (!tries.empty()) {
        const auto [key, at] = tries.front();
        const auto it = pending.find(key);
        const bool live = it != pending.end() && it->second.backhaul == b;
        if (live && at > now) break;
        tries.pop_front();
        if (!live) continue;
        fail(key, Failure::kTimeout,
             "no reply from " + backhauls[b].endpoint.describe() +
                 " within " + std::to_string(config.try_timeout_ms) + "ms");
      }
    }
    // Timers armed by the handlers below fire on a later pass.
    std::vector<Timer> due;
    while (!timers.empty() && timers.top().first <= now) {
      due.push_back(timers.top());
      timers.pop();
    }
    for (const auto& [at, id] : due) {
      if (id >> 56 != kFront) {
        if (pending.count(id) != 0) send(id);
        continue;
      }
      const auto it = sessions.find(id & kIdMask);
      if (it == sessions.end()) continue;
      it->second.reading = true;
      settle(it->first, it->second);
    }
  }

  /// One send per connection with output: every frame queued during
  /// this wake-up leaves in a single write.
  void flush() {
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      const std::uint64_t t = dirty[i];
      const std::uint64_t id = t & kIdMask;
      if (t >> 56 == kBack) {
        Backhaul& bh = backhauls[id];
        bh.dirty = false;
        if (bh.fd < 0) continue;
        if (!send_some(bh.fd, &bh.out)) {
          close_backhaul(id, Failure::kReset,
                         "send to " + bh.endpoint.describe() + " failed");
          continue;
        }
        want(bh, EPOLLIN | (bh.out.empty() ? 0u : EPOLLOUT), t);
        continue;
      }
      const auto it = sessions.find(id);
      if (it == sessions.end()) continue;
      it->second.dirty = false;
      if (!send_some(it->second.fd, &it->second.out)) {
        close_front(id);
        continue;
      }
      settle(id, it->second);
    }
    dirty.clear();
  }
};

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
  listeners_.open(config_.unix_socket, config_.tcp_port, "fleet");
  loop_ = std::make_unique<Loop>(*this);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop_->run(); });
}

void Router::stop() {
  if (!running_.exchange(false)) return;
  loop_->stop_requested.store(true, std::memory_order_release);
  loop_thread_.join();
  loop_.reset();
  listeners_.close();
}

FleetStats Router::stats() const {
  const auto get = [](const std::uint64_t& c) {
    return std::atomic_ref(const_cast<std::uint64_t&>(c))
        .load(std::memory_order_relaxed);
  };
  const FleetStats& c = counts_;
  return {get(c.connections),  get(c.requests),     get(c.responses),
          get(c.errors),       get(c.retries),      get(c.failovers),
          get(c.busy_retries), get(c.degraded),     get(c.late_replies),
          get(c.chaos_kills),  get(c.chaos_hangs),  get(c.chaos_drops),
          get(c.chaos_delays)};
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

}  // namespace iotax::serve
