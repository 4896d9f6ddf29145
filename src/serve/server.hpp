// The iotax model-serving daemon: keeps saved Regressor checkpoints
// resident in a ModelRegistry and answers prediction requests over
// Unix-domain and/or TCP sockets using the framed binary protocol
// (serve/protocol.hpp).
//
// Request lifecycle, all on one event-loop thread (serve/event_loop.hpp):
//   read + decode --> admit (max-inflight) --> batch --> score --> write
//
// The loop owns every connection. It decodes frames, answers pings and
// control operations, and admits predict requests, up to --max-inflight
// of them. Once per wake-up it scores what it admitted, --batch-size
// rows at a time (batching is work-conserving: requests that arrive
// while a batch is scored wait for the next one; --batch-wait-us N opts
// into holding a batch open up to N µs for more). Each model's rows go
// through the ordinary batch-predict kernels in one Matrix — the same
// thread-pool code offline `iotax predict` uses — so served answers are
// bit-identical to offline predictions at any IOTAX_THREADS. Replies
// leave without blocking, one send per connection per wake-up, so a
// client that does not read its replies stalls nobody else: past
// EventLoop::kMaxFrontOut unsent bytes the loop stops reading it.
// Responses carry the request id, so cross-request ordering is
// unconstrained.
//
// Failure model: malformed or truncated frames map to the shared
// quarantine Reason vocabulary and produce a typed error reply; they
// never kill the daemon. Admission control sheds load with a typed BUSY
// reply once max-inflight requests wait for their batch. stop() drains
// gracefully: listeners close, the loop stops reading, every already-
// admitted request is answered and written (peers that do not read get
// a fixed grace), then the loop thread joins.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/ml/registry.hpp"
#include "src/serve/event_loop.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/quarantine.hpp"

namespace iotax::serve {

struct ServeConfig {
  /// Checkpoints to load; requests address them by index in this order.
  std::vector<std::string> model_files;
  /// Unix-domain listener path ("" disables). The path is unlinked on
  /// bind and again on shutdown.
  std::string unix_socket;
  /// TCP listener port on 127.0.0.1 (-1 disables, 0 picks an ephemeral
  /// port — read it back with Server::tcp_port()).
  int tcp_port = -1;
  /// Micro-batching: a batch holds at most `batch_size` requests. With
  /// `batch_wait_us` 0 (work-conserving, the default) it closes at the
  /// end of the loop's wake-up, holding whatever was admitted; a positive
  /// window keeps it open that long after its first request unless it
  /// fills first. These defaults (and `max_inflight`) are the only
  /// copies: the fleet's SupervisorConfig and the CLI read them from
  /// ServeConfig{}.
  std::size_t batch_size = 32;
  std::uint64_t batch_wait_us = 0;
  /// Admission control: requests beyond this many waiting for their
  /// batch get a typed BUSY reply instead of queueing.
  std::size_t max_inflight = 256;
  /// Shadow deployment: a candidate checkpoint served beside production
  /// ("" disables). Requests flagged kFlagShadow get values =
  /// {production, shadow}; divergence between the two is accounted
  /// bit-exactly and gates promotion (ControlOp::kPromote publishes the
  /// shadow into `shadow_slot`).
  std::string shadow_file;
  /// Registry slot the shadow is a candidate for.
  std::size_t shadow_slot = 0;
};

/// Monotonic totals since start(); exact (plain atomics, not gated on
/// IOTAX_OBS). The obs counters serve.{requests,batches,shed,...}
/// mirror these when observability is enabled.
struct ServeStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;     // admitted predict requests
  std::uint64_t responses = 0;    // predict responses handed to the loop
  std::uint64_t batches = 0;      // batches executed
  std::uint64_t shed = 0;         // BUSY replies (admission control)
  std::uint64_t errors = 0;       // typed error replies other than BUSY
  std::uint64_t quarantined = 0;  // frame/request defects recorded
  std::uint64_t shadow_requests = 0;  // rows also scored by the shadow
  std::uint64_t shadow_diverged = 0;  // rows whose two answers differ bitwise
  std::uint64_t promotions = 0;       // shadow publishes into the registry
  std::uint64_t rollbacks = 0;        // registry rollbacks applied
  double max_abs_divergence = 0.0;    // worst |production - shadow| seen
};

class Server : private EventLoop::Handler {
 public:
  explicit Server(ServeConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load models, bind listeners, launch the event-loop thread. Throws std::runtime_error on any setup failure (bad
  /// checkpoint, unbindable socket).
  void start();

  /// Graceful drain: stop accepting and reading, answer everything
  /// already admitted, join the loop thread. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual TCP port after start() (useful with config tcp_port = 0);
  /// -1 when TCP is disabled.
  int tcp_port() const { return loop_ ? loop_->tcp_port() : -1; }

  const ml::ModelRegistry& registry() const { return registry_; }
  const ServeConfig& config() const { return config_; }

  /// Snapshot of the shadow candidate (nullptr when none is loaded or
  /// after a promotion consumed it).
  std::shared_ptr<const ml::ModelEntry> shadow() const;

  ServeStats stats() const;
  /// Snapshot of frame/request defects seen so far.
  util::QuarantineReport quarantine() const;

 private:
  struct Pending;

  // EventLoop::Handler, all on the loop thread.
  bool on_accept(EventLoop::Conn& c) override;
  bool on_frame(EventLoop::Conn& c, const util::FrameHeader& header) override;
  void on_bad_frame(EventLoop::Conn& c, util::Reason reason,
                    std::string detail, const std::string& why) override;
  bool drained() const override;
  /// Score the admitted requests whose batch has closed.
  EventLoop::Clock::time_point on_tick() override;

  /// Handle one complete frame: the reply to queue, or "" when the
  /// request was admitted (its batch answers it).
  std::string handle_frame(EventLoop::Conn& c,
                           const util::FrameHeader& header);
  /// Apply one administrative verb (promote / rollback / status) and
  /// return the encoded ControlResponse.
  std::string handle_control(const ControlRequest& req);
  void run_batch(std::vector<Pending>&& batch);
  /// Account for a typed error reply (BUSY counts as shed) and return
  /// it encoded. A reply carrying a Reason also enters the quarantine
  /// ledger, described by `why` when given.
  std::string refusal(std::uint64_t request_id, ServeStatus status,
                      std::optional<util::Reason> reason, std::string detail,
                      const std::string& why = {});
  void note_quarantine(util::Reason reason, const std::string& detail);

  ServeConfig config_;
  ml::ModelRegistry registry_;

  std::vector<Pending> pending_;  // admitted, batch open (loop thread)

  std::atomic<bool> running_{false};

  mutable std::mutex quarantine_mu_;
  util::QuarantineReport quarantine_;  // guarded by quarantine_mu_

  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_responses_{0};
  std::atomic<std::uint64_t> n_batches_{0};
  std::atomic<std::uint64_t> n_shed_{0};
  std::atomic<std::uint64_t> n_errors_{0};
  std::atomic<std::uint64_t> n_quarantined_{0};

  // Shadow deployment state. The candidate entry swaps out atomically on
  // promotion; divergence accounting is monotonic since start().
  mutable std::mutex shadow_mu_;
  std::shared_ptr<const ml::ModelEntry> shadow_;  // guarded by shadow_mu_
  double max_abs_divergence_ = 0.0;               // guarded by shadow_mu_
  std::atomic<std::uint64_t> n_shadow_requests_{0};
  std::atomic<std::uint64_t> n_shadow_diverged_{0};
  std::atomic<std::uint64_t> n_promotions_{0};
  std::atomic<std::uint64_t> n_rollbacks_{0};

  std::unique_ptr<EventLoop> loop_;  // last: its thread uses all above
};

}  // namespace iotax::serve
