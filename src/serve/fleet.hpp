// The serving fleet: a supervised pack of shard daemons behind one
// consistent-hashing router.
//
//   clients ==> Router (one epoll thread) ==> one backhaul per shard
//               pending: backhaul id -> (session, client id, try state)
//                                              shard g<slot>r<k> (iotax serve)
//                                                   ^
//               Supervisor: spawn, health ping, SIGKILL hung shards,
//               restart under a backoff budget -----+
//
// Every shard loads the same checkpoints, so the hash only decides
// *where* a request runs, never *what* it answers. The router forwards
// each client's frames as they arrive, pipelined over one multiplexed
// connection per shard, so a client's window reaches the shard's batcher
// whole. Retry, BUSY back-off and failover are per-request state under
// deadlines, which is why a mid-load `kill -9` of a shard is invisible
// to clients: its in-flight requests go out again to a sibling replica
// and the answers stay bit-identical to offline `iotax predict`. Only
// when a whole group stays unreachable past the request deadline does a
// client see an error: kDegraded, carrying the terminal transport
// Reason. Chaos (src/faults/chaos.hpp) scripts all of this: kill/hang
// reach shards through the supervisor, drop/delay act in the router, and
// the plan's ground truth is compared counter-exact to SupervisorStats /
// FleetStats.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/faults/chaos.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/backoff.hpp"
#include "src/util/quarantine.hpp"
#include "src/util/rng.hpp"

namespace iotax::serve {

/// Where a shard listens. Stable across shard restarts (the supervisor
/// rebinds the same socket path / port), which is what lets a request
/// that failed over land on a freshly restarted replica later.
struct Endpoint {
  enum class Kind : std::uint8_t { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // kUnix
  std::string host;  // kTcp: a numeric IPv4 address
  std::uint16_t port = 0;

  static Endpoint unix_path(std::string p);
  static Endpoint tcp(std::string host, std::uint16_t port);
  std::string describe() const;
};

/// Which replica group serves a request: FNV-1a over the model index
/// and the feature doubles' bit patterns, mod n_groups. Pure function
/// of the request, so a replayed workload always routes identically.
std::size_t fleet_slot(const PredictRequest& req, std::size_t n_groups);

struct SupervisorConfig {
  /// The iotax binary to exec shards from (argv[0] of the parent, or
  /// an explicit --iotax-bin override in tests).
  std::string iotax_bin;
  /// Checkpoints every shard loads, in registry order.
  std::vector<std::string> model_files;
  /// Directory for shard unix sockets (g<g>r<r>.sock), ready files and
  /// log files. Must exist and be short enough for sun_path.
  std::string shard_dir;
  std::size_t n_groups = 1;
  std::size_t n_replicas = 2;
  /// Non-empty switches shards to TCP on 127.0.0.1; must hold exactly
  /// n_groups * n_replicas distinct ports (row-major by group).
  std::vector<int> shard_ports;
  /// Passed through to each shard's ServeConfig; defaults are its own.
  std::size_t batch_size = ServeConfig{}.batch_size;
  std::uint64_t batch_wait_us = ServeConfig{}.batch_wait_us;
  std::size_t max_inflight = ServeConfig{}.max_inflight;
  /// Health loop: every interval, each live shard gets a ping that must
  /// answer within the timeout; silence means hung -> SIGKILL + restart.
  std::uint64_t health_interval_ms = 100;
  std::uint64_t health_timeout_ms = 1000;
  /// Restarts allowed per shard before the supervisor gives up on it.
  std::size_t restart_budget = 8;
  util::BackoffPolicy restart_backoff{/*initial_ms=*/20, /*max_ms=*/2000,
                                      /*multiplier=*/2.0, /*jitter=*/0.25};
  /// How long start() waits for every shard's ready file.
  std::uint64_t spawn_timeout_ms = 30000;
  /// Seeds the restart-backoff jitter streams (forked per shard).
  std::uint64_t seed = 0xf1ee7ULL;
};

/// Monotonic totals since start(); exact.
struct SupervisorStats {
  std::uint64_t spawns = 0;          // initial spawns + restarts
  std::uint64_t restarts = 0;        // respawns after a death/hang
  std::uint64_t exits_detected = 0;  // shard deaths seen by waitpid
  std::uint64_t hangs_detected = 0;  // ping deadlines -> SIGKILL
  std::uint64_t gave_up = 0;         // shards past their restart budget
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawn every shard, wait for all ready files, launch the health
  /// monitor. Throws when a shard exits before becoming ready or the
  /// spawn deadline passes — the fleet refuses to start degraded.
  void start();

  /// Stop the monitor, which SIGTERMs every shard and reaps it (SIGKILL
  /// after 10 s) before it exits; returns once that is done. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  std::size_t n_groups() const { return config_.n_groups; }
  std::size_t n_replicas() const { return config_.n_replicas; }
  /// Replica endpoints for one group (stable across restarts).
  std::vector<Endpoint> group_endpoints(std::size_t group) const;

  /// Chaos hook: deliver `sig` (SIGKILL, SIGSTOP, ...) to one shard.
  /// Returns false when the shard has no live process right now.
  bool signal_shard(std::size_t group, std::size_t replica, int sig);

  /// Shards currently believed up (spawned, not known-dead).
  std::size_t live_shards() const;
  SupervisorStats stats() const;
  const SupervisorConfig& config() const { return config_; }

 private:
  enum class ShardState : std::uint8_t { kUp, kRestarting, kFailed };

  struct Shard {
    std::size_t group = 0;
    std::size_t replica = 0;
    Endpoint endpoint;
    std::string socket_path;  // unix mode; "" for TCP
    std::string ready_file;
    std::string log_file;
    pid_t pid = -1;
    ShardState state = ShardState::kUp;
    /// Ready file observed since the last (re)spawn; health pings are
    /// suppressed until then so startup never reads as a hang.
    bool ready_seen = false;
    std::size_t restarts_used = 0;
    std::size_t backoff_step = 0;
    std::chrono::steady_clock::time_point next_restart{};
    util::Rng rng{0};  // per-shard backoff jitter stream
  };

  /// fork/exec one shard (stdout+stderr -> its log file). Throws on
  /// fork failure; exec failure surfaces as an immediate child exit.
  void spawn(Shard& shard);
  void monitor_loop();
  /// One health step for shards_[i]: restart, reap, readiness, ping.
  void check_shard(std::size_t i, std::uint64_t& ping_id);
  /// SIGTERM every live shard and reap it; runs on the monitor thread,
  /// which forked every restarted shard (see monitor_loop).
  void drain_shards();
  /// Death/hang bookkeeping: schedule a restart or mark failed.
  void shard_down(Shard& shard, const char* why);
  /// SIGKILL and reap everything spawned so far (startup-failure path).
  void stop_spawned_locked();
  std::vector<std::string> shard_argv(const Shard& shard) const;

  SupervisorConfig config_;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;  // guarded by mu_
  std::thread monitor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> n_spawns_{0};
  std::atomic<std::uint64_t> n_restarts_{0};
  std::atomic<std::uint64_t> n_exits_{0};
  std::atomic<std::uint64_t> n_hangs_{0};
  std::atomic<std::uint64_t> n_gave_up_{0};
};

struct RouterConfig {
  /// Front listeners, same semantics as ServeConfig.
  std::string unix_socket;
  int tcp_port = -1;
  /// Per-request budget and per-try cap for the backhaul: a try with no
  /// reply after try_timeout_ms fails over, and the first failure past
  /// deadline_ms (counted from admission) answers kDegraded.
  std::uint64_t deadline_ms = 5000;
  std::uint64_t try_timeout_ms = 250;
  util::BackoffPolicy retry_backoff{};
  std::uint64_t seed = 0xf1ee7ULL;
  /// Deterministic fault script; empty = no chaos. kill/hang events
  /// need a supervisor; drop/delay work with static groups too.
  faults::ChaosPlan chaos;
  /// Shard topology: exactly one of these. A supervisor owns real
  /// processes; static_groups points at externally managed listeners
  /// (how the unit tests route to in-process Servers), which are taken
  /// to run with ServeConfig{}'s max_inflight.
  Supervisor* supervisor = nullptr;
  std::vector<std::vector<Endpoint>> static_groups;
};

/// Monotonic totals since start(); exact. Mirrored to obs counters
/// fleet.* when observability is on.
struct FleetStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;      // predict requests admitted
  std::uint64_t responses = 0;     // predict responses relayed
  std::uint64_t errors = 0;        // typed error replies relayed/created
  std::uint64_t retries = 0;       // backhaul tries after a request's first
  std::uint64_t failovers = 0;     // tries moved to the next replica
  std::uint64_t busy_retries = 0;  // BUSY replies absorbed by retry
  std::uint64_t degraded = 0;      // kDegraded replies (deadline spent)
  std::uint64_t late_replies = 0;  // shard replies to tries already given up
  std::uint64_t chaos_kills = 0;
  std::uint64_t chaos_hangs = 0;
  std::uint64_t chaos_drops = 0;
  std::uint64_t chaos_delays = 0;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind front listeners and start the event loop. The shard source
  /// (supervisor or static groups) must already be running; throws if
  /// neither or both are configured, or the chaos plan addresses shards
  /// outside the topology.
  void start();
  /// Close listeners, stop reading clients, answer every admitted
  /// request, join. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int tcp_port() const { return listeners_.tcp_port; }
  std::size_t n_groups() const { return groups_.size(); }

  FleetStats stats() const;
  /// Transport-level defects the router absorbed or surfaced (degraded
  /// requests by terminal Reason, framing defects from clients).
  util::QuarantineReport quarantine() const;

 private:
  struct Loop;  // the event loop's state; fleet.cpp

  void note_quarantine(util::Reason reason, const std::string& detail);

  RouterConfig config_;
  std::vector<std::vector<Endpoint>> groups_;
  Listeners listeners_;

  std::atomic<bool> running_{false};
  std::unique_ptr<Loop> loop_;

  mutable std::mutex quarantine_mu_;
  util::QuarantineReport quarantine_;  // guarded by quarantine_mu_

  /// Written by the event loop, read by stats(); every access to a field
  /// goes through std::atomic_ref.
  FleetStats counts_;
  std::thread loop_thread_;
};

}  // namespace iotax::serve
