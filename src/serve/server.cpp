#include "src/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/data/matrix.hpp"
#include "src/ml/ensemble.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace iotax::serve {

using util::FrameDecode;
using util::FrameHeader;
using util::FrameType;
using util::Reason;

struct Server::Session {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> dead{false};

  ~Session() {
    if (fd >= 0) ::close(fd);
  }
};

/// One admitted request waiting for its batch.
struct Server::Pending {
  std::shared_ptr<Session> session;
  PredictRequest req;
  std::chrono::steady_clock::time_point t_enqueue;
};

void Listeners::open(const std::string& unix_socket, int port,
                     const char* who) {
  const std::string me = std::string(who) + ": ";
  const auto listen_on = [&](const sockaddr* addr, socklen_t len,
                             const std::string& where) {
    const int fd = ::socket(addr->sa_family,
                            SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) throw std::runtime_error(me + "socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, addr, len) < 0 || ::listen(fd, 128) < 0) {
      const int err = errno;
      ::close(fd);
      close();
      throw std::runtime_error(me + "cannot listen on " + where + ": " +
                               std::strerror(err));
    }
    return fd;
  };
  if (!unix_socket.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_socket.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error(me + "unix socket path too long: " +
                               unix_socket);
    }
    std::memcpy(addr.sun_path, unix_socket.c_str(), unix_socket.size() + 1);
    ::unlink(unix_socket.c_str());  // stale socket from a previous run
    unix_fd = listen_on(reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                        "unix socket " + unix_socket);
    unix_path = unix_socket;
  }
  if (port >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    tcp_fd = listen_on(reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                       "TCP port " + std::to_string(port));
    socklen_t len = sizeof(addr);
    if (::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      tcp_port = ntohs(addr.sin_port);
    }
  }
  if (unix_fd < 0 && tcp_fd < 0) {
    throw std::runtime_error(
        me + "no listener configured (need --socket and/or --port)");
  }
}

void Listeners::close() {
  if (unix_fd >= 0) {
    ::close(unix_fd);
    ::unlink(unix_path.c_str());
    unix_fd = -1;
  }
  if (tcp_fd >= 0) {
    ::close(tcp_fd);
    tcp_fd = -1;
  }
}

Server::Server(ServeConfig config) : config_(std::move(config)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.max_inflight == 0) config_.max_inflight = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("serve: already running");
  }
  // A client that closes its read side mid-reply must cost us an EPIPE
  // errno on that one session, not a process-killing SIGPIPE. Writes
  // already pass MSG_NOSIGNAL, but belt-and-braces for any path (e.g. a
  // third-party lib) that writes without it.
  ::signal(SIGPIPE, SIG_IGN);
  for (const auto& path : config_.model_files) registry_.add(path);
  if (registry_.size() == 0) {
    throw std::runtime_error("serve: no model checkpoints given");
  }
  if (!config_.shadow_file.empty()) {
    if (config_.shadow_slot >= registry_.size()) {
      throw std::runtime_error(
          "serve: --shadow-slot " + std::to_string(config_.shadow_slot) +
          " outside registry of " + std::to_string(registry_.size()));
    }
    const std::uint64_t hash = ml::hash_model_file(config_.shadow_file);
    auto entry = std::make_shared<ml::ModelEntry>();
    entry->model = std::shared_ptr<const ml::Regressor>(
        ml::load_regressor_file(config_.shadow_file));
    entry->source = config_.shadow_file;
    entry->generation = 0;  // candidate: not yet published
    entry->params_hash = hash;
    const auto prod = registry_.entry(config_.shadow_slot);
    if (entry->model->n_features() != 0 && prod->model->n_features() != 0 &&
        entry->model->n_features() != prod->model->n_features()) {
      throw std::runtime_error(
          "serve: shadow model expects " +
          std::to_string(entry->model->n_features()) +
          " features but production slot " +
          std::to_string(config_.shadow_slot) + " expects " +
          std::to_string(prod->model->n_features()));
    }
    std::lock_guard<std::mutex> lock(shadow_mu_);
    shadow_ = std::move(entry);
  }
  queue_ = std::make_unique<util::BoundedQueue<Pending>>(config_.max_inflight);
  listeners_.open(config_.unix_socket, config_.tcp_port, "serve");
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  batcher_thread_ = std::thread([this] { batcher_loop(); });
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    // Another thread is already draining; wait for it to finish.
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  // 1. Stop accepting and close the listeners.
  if (accept_thread_.joinable()) accept_thread_.join();
  listeners_.close();
  // 2. Stop the session readers (no new admissions). shutdown(SHUT_RD)
  // turns a blocked poll into an immediate EOF; pending responses still
  // flow out through the write side.
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
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    finished_.clear();
  }
  // 3. Drain: the batcher answers every admitted request, then exits.
  queue_->close();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  running_.store(false, std::memory_order_release);
}

ServeStats Server::stats() const {
  ServeStats s;
  s.connections = n_connections_.load(std::memory_order_relaxed);
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.responses = n_responses_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.shed = n_shed_.load(std::memory_order_relaxed);
  s.errors = n_errors_.load(std::memory_order_relaxed);
  s.quarantined = n_quarantined_.load(std::memory_order_relaxed);
  s.shadow_requests = n_shadow_requests_.load(std::memory_order_relaxed);
  s.shadow_diverged = n_shadow_diverged_.load(std::memory_order_relaxed);
  s.promotions = n_promotions_.load(std::memory_order_relaxed);
  s.rollbacks = n_rollbacks_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    s.max_abs_divergence = max_abs_divergence_;
  }
  return s;
}

std::shared_ptr<const ml::ModelEntry> Server::shadow() const {
  std::lock_guard<std::mutex> lock(shadow_mu_);
  return shadow_;
}

util::QuarantineReport Server::quarantine() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantine_;
}

bool Server::write_frame(Session& session, std::string_view bytes) {
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

void Server::note_quarantine(Reason reason, const std::string& detail) {
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    util::QuarantineEntry entry;
    entry.reason = reason;
    entry.detail = detail;
    quarantine_.add(std::move(entry));
  }
  n_quarantined_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("serve.quarantined", 1);
}

void Server::refuse(const std::shared_ptr<Session>& session,
                    std::uint64_t request_id, ServeStatus status,
                    std::optional<Reason> reason, std::string detail,
                    const std::string& why) {
  if (reason) note_quarantine(*reason, why.empty() ? detail : why);
  write_frame(*session, encode_error_response(ErrorResponse{
                            request_id, status, reason, std::move(detail)}));
  if (status == ServeStatus::kBusy || status == ServeStatus::kShuttingDown) {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("serve.shed", 1);
  } else {
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    IOTAX_OBS_COUNT("serve.errors", 1);
  }
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    int n_fds = 0;
    for (const int fd : {listeners_.unix_fd, listeners_.tcp_fd}) {
      if (fd >= 0) fds[n_fds++] = {fd, POLLIN, 0};
    }
    const int rc = ::poll(fds, static_cast<nfds_t>(n_fds), 100);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    reap_sessions_locked();
    if (rc <= 0) continue;
    for (int i = 0; i < n_fds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept4(fds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd < 0) continue;
      auto session = std::make_shared<Session>();
      session->fd = cfd;
      n_connections_.fetch_add(1, std::memory_order_relaxed);
      IOTAX_OBS_COUNT("serve.connections", 1);
      sessions_.push_back(session);
      session_threads_.emplace_back(
          [this, session = std::move(session)]() mutable {
            session_loop(std::move(session));
            std::lock_guard<std::mutex> done(sessions_mu_);
            finished_.push_back(std::this_thread::get_id());
          });
    }
  }
}

void Server::reap_sessions_locked() {
  // These readers have released their sessions and only have to return.
  // Unjoined, each would keep its stack mapped until stop(): a shard the
  // supervisor pings on a fresh connection every 100 ms would run out of
  // mappings within the hour.
  for (const auto id : finished_) {
    const auto it = std::find_if(
        session_threads_.begin(), session_threads_.end(),
        [id](const std::thread& t) { return t.get_id() == id; });
    if (it == session_threads_.end()) continue;
    it->join();
    *it = std::move(session_threads_.back());
    session_threads_.pop_back();
  }
  finished_.clear();
  std::erase_if(sessions_, [](const auto& weak) { return weak.expired(); });
}

void Server::session_loop(std::shared_ptr<Session> session) {
  util::FrameReader reader;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{session->fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const ssize_t n = reader.read_from(session->fd);
    if (n < 0) break;
    if (n == 0) {
      // EOF. Anything left in the buffer is a frame the peer never
      // finished — the wire-level analogue of a truncated archive.
      // During drain the cut is ours, not the peer's: stay silent.
      if (reader.buffered() > 0 && !stopping_.load(std::memory_order_acquire)) {
        refuse(session, 0, ServeStatus::kBadFrame, Reason::kTruncated,
               "truncated frame", reader.truncation_detail());
      }
      break;
    }
    bool close_session = false;
    while (true) {
      const FrameDecode& dec = reader.peek();
      if (dec.status == FrameDecode::Status::kNeedMore) break;
      if (dec.status == FrameDecode::Status::kBad) {
        // Framing is lost — reply with the typed defect and close; the
        // daemon itself keeps serving every other connection.
        refuse(session, 0, ServeStatus::kBadFrame, dec.reason, dec.detail);
        close_session = true;
        break;
      }
      if (!handle_frame(session, dec.header, reader.payload())) {
        close_session = true;
        break;
      }
      reader.pop();
    }
    if (close_session) break;
  }
}

bool Server::handle_frame(const std::shared_ptr<Session>& session,
                          const FrameHeader& header,
                          std::span<const std::uint8_t> payload) {
  switch (static_cast<FrameType>(header.type)) {
    case FrameType::kPing:
      write_frame(*session, encode_pong(header.request_id));
      return true;
    case FrameType::kPredictRequest:
      break;
    case FrameType::kControlRequest: {
      ControlRequest creq;
      ErrorResponse cerr;
      if (!decode_control_request(header, payload, &creq, &cerr)) {
        refuse(session, cerr.request_id, cerr.status, cerr.reason,
               cerr.detail);
        return true;
      }
      handle_control(session, creq);
      return true;
    }
    default: {
      // Well-framed but not something a client may send. The frame
      // boundary is intact, so the connection survives.
      refuse(session, header.request_id, ServeStatus::kBadFrame,
             Reason::kMalformedHeader, "unexpected frame type",
             "unexpected frame type " + std::to_string(header.type));
      return true;
    }
  }

  Pending pending;
  pending.session = session;
  ErrorResponse err;
  if (!decode_predict_request(header, payload, &pending.req, &err)) {
    refuse(session, err.request_id, err.status, err.reason, err.detail);
    return true;
  }
  const std::uint64_t id = header.request_id;
  if (pending.req.model_index >= registry_.size()) {
    refuse(session, id, ServeStatus::kUnknownModel, std::nullopt,
           "model index " + std::to_string(pending.req.model_index) +
               " outside registry of " + std::to_string(registry_.size()));
    return true;
  }
  // Snapshot the slot's current publication: a concurrent promote can
  // swap the slot, but this request validated (and will score) against a
  // coherent entry that the shared_ptr keeps alive.
  const auto entry = registry_.entry(pending.req.model_index);
  const auto& model = *entry->model;
  if (model.n_features() != 0 &&
      pending.req.features.size() != model.n_features()) {
    refuse(session, id, ServeStatus::kBadRequest, Reason::kSizeMismatch,
           "model expects " + std::to_string(model.n_features()) +
               " features, request carries " +
               std::to_string(pending.req.features.size()));
    return true;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    refuse(session, id, ServeStatus::kShuttingDown, std::nullopt,
           "daemon is draining");
    return true;
  }
  // Admission control: past max-inflight the request is shed with a
  // typed BUSY reply — the client backs off, the daemon never queues
  // unboundedly.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      config_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    refuse(session, id, ServeStatus::kBusy, std::nullopt,
           "max-inflight " + std::to_string(config_.max_inflight) +
               " reached");
    return true;
  }
  pending.t_enqueue = std::chrono::steady_clock::now();
  if (!queue_->try_push(std::move(pending))) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    refuse(session, id,
           queue_->closed() ? ServeStatus::kShuttingDown : ServeStatus::kBusy,
           std::nullopt, "request queue full");
    return true;
  }
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("serve.requests", 1);
  IOTAX_OBS_GAUGE("serve.inflight",
                  static_cast<double>(
                      inflight_.load(std::memory_order_relaxed)));
  return true;
}

void Server::handle_control(const std::shared_ptr<Session>& session,
                            const ControlRequest& req) {
  ControlResponse resp;
  resp.request_id = req.request_id;
  resp.shadow_requests = n_shadow_requests_.load(std::memory_order_relaxed);
  resp.shadow_diverged = n_shadow_diverged_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    resp.max_abs_divergence = max_abs_divergence_;
  }
  if (req.model_index >= registry_.size()) {
    resp.ok = false;
    resp.detail = "model index " + std::to_string(req.model_index) +
                  " outside registry of " + std::to_string(registry_.size());
    write_frame(*session, encode_control_response(resp));
    return;
  }
  switch (req.op) {
    case ControlOp::kStatus: {
      const auto entry = registry_.entry(req.model_index);
      resp.ok = true;
      resp.generation = entry->generation;
      resp.detail = entry->model->name() + " from " + entry->source +
                    " (params hash " +
                    ml::format_params_hash(entry->params_hash) + ")";
      break;
    }
    case ControlOp::kPromote: {
      // Promotion gate: a shadow must exist, target the requested slot,
      // and have scored enough live traffic. The publish itself is one
      // registry generation bump; in-flight requests keep their entry
      // snapshots and finish on the model they validated against.
      std::shared_ptr<const ml::ModelEntry> candidate;
      {
        std::lock_guard<std::mutex> lock(shadow_mu_);
        candidate = shadow_;
      }
      if (candidate == nullptr) {
        resp.ok = false;
        resp.generation = registry_.entry(req.model_index)->generation;
        resp.detail = "no shadow candidate loaded";
        break;
      }
      if (req.model_index != config_.shadow_slot) {
        resp.ok = false;
        resp.generation = registry_.entry(req.model_index)->generation;
        resp.detail = "shadow is a candidate for slot " +
                      std::to_string(config_.shadow_slot) + ", not " +
                      std::to_string(req.model_index);
        break;
      }
      if (resp.shadow_requests < req.min_shadow_requests) {
        resp.ok = false;
        resp.generation = registry_.entry(req.model_index)->generation;
        resp.detail = "shadow has scored " +
                      std::to_string(resp.shadow_requests) + " of required " +
                      std::to_string(req.min_shadow_requests) + " request(s)";
        break;
      }
      const std::uint64_t generation =
          registry_.publish(req.model_index, candidate->model,
                            candidate->source, candidate->params_hash);
      {
        std::lock_guard<std::mutex> lock(shadow_mu_);
        shadow_.reset();  // consumed; further kFlagShadow rows answer {prod}
      }
      n_promotions_.fetch_add(1, std::memory_order_relaxed);
      IOTAX_OBS_COUNT("serve.promotions", 1);
      IOTAX_OBS_GAUGE("serve.generation", static_cast<double>(generation));
      resp.ok = true;
      resp.generation = generation;
      resp.detail = "promoted " + candidate->source + " (params hash " +
                    ml::format_params_hash(candidate->params_hash) +
                    ") as generation " + std::to_string(generation);
      break;
    }
    case ControlOp::kRollback: {
      try {
        const auto restored = registry_.rollback(req.model_index);
        n_rollbacks_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("serve.rollbacks", 1);
        IOTAX_OBS_GAUGE("serve.generation",
                        static_cast<double>(restored->generation));
        resp.ok = true;
        resp.generation = restored->generation;
        resp.detail = "rolled back to " + restored->source +
                      " (params hash " +
                      ml::format_params_hash(restored->params_hash) +
                      ") as generation " +
                      std::to_string(restored->generation);
      } catch (const std::exception& e) {
        resp.ok = false;
        resp.generation = registry_.entry(req.model_index)->generation;
        resp.detail = e.what();
      }
      break;
    }
  }
  write_frame(*session, encode_control_response(resp));
}

void Server::batcher_loop() {
  while (true) {
    auto batch = queue_->pop_batch(
        config_.batch_size, std::chrono::microseconds(config_.batch_wait_us));
    if (batch.empty()) break;  // closed and drained
    run_batch(std::move(batch));
  }
}

void Server::run_batch(std::vector<Pending>&& batch) {
  IOTAX_TRACE_SPAN("serve.batch");
  obs::span_arg("rows", static_cast<double>(batch.size()));
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("serve.batches", 1);
  if (obs::enabled()) {
    // Rows per executed batch: how much batching the admission window
    // actually achieves, and thus how much of the packed-kernel batch
    // speedup each request sees (wide buckets — sizes are powers-ish).
    static obs::Histogram& batch_rows_hist =
        obs::MetricsRegistry::global().histogram(
            "serve.batch_rows", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                                 128.0, 256.0, 512.0});
    batch_rows_hist.observe(static_cast<double>(batch.size()));
  }

  // Group batch slots by (model, row width, dist?, shadow?) in
  // first-appearance order, then run each group through one
  // MatrixView-backed predict.
  struct Group {
    std::uint16_t model_index;
    std::size_t width;
    bool dist;
    bool shadow;
    std::vector<std::size_t> slots;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& req = batch[i].req;
    Group* group = nullptr;
    for (auto& g : groups) {
      if (g.model_index == req.model_index &&
          g.width == req.features.size() && g.dist == req.want_dist &&
          g.shadow == req.want_shadow) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{req.model_index, req.features.size(),
                             req.want_dist, req.want_shadow, {}});
      group = &groups.back();
    }
    group->slots.push_back(i);
  }

  for (const auto& group : groups) {
    // Entry snapshot: a promote landing mid-batch swaps the registry
    // slot, but this group finishes on the model its requests were
    // admitted against — no in-flight request is dropped or re-scored.
    const auto entry = registry_.entry(group.model_index);
    const auto& model = *entry->model;
    // Shadow scoring applies to kFlagShadow point predictions against
    // the candidate's slot; dist requests keep their 3-value contract.
    std::shared_ptr<const ml::ModelEntry> shadow_entry;
    if (group.shadow && !group.dist &&
        group.model_index == config_.shadow_slot) {
      std::lock_guard<std::mutex> lock(shadow_mu_);
      shadow_entry = shadow_;
    }
    data::Matrix x(group.slots.size(), group.width);
    for (std::size_t r = 0; r < group.slots.size(); ++r) {
      const auto& feats = batch[group.slots[r]].req.features;
      auto row = x.mutable_row(r);
      for (std::size_t c = 0; c < group.width; ++c) row[c] = feats[c];
    }
    std::vector<PredictResponse> responses(group.slots.size());
    bool ok = true;
    try {
      // A dist request against an ensemble gets the full decomposition;
      // any other model family answers with its point prediction. Both
      // run the ordinary batch kernels, so a served value is bit-equal
      // to what offline `iotax predict` computes for the same row.
      const auto* ensemble =
          group.dist ? dynamic_cast<const ml::DeepEnsemble*>(&model) : nullptr;
      if (ensemble != nullptr) {
        const auto uq = ensemble->predict_uncertainty(x);
        for (std::size_t r = 0; r < group.slots.size(); ++r) {
          responses[r].values = {uq.mean[r], uq.aleatory[r], uq.epistemic[r]};
        }
      } else if (shadow_entry != nullptr) {
        // Production and shadow score the identical Matrix through the
        // same batch kernels, so both values are bit-equal to what
        // offline `iotax predict` computes for the same rows — which is
        // what lets divergence accounting be exact rather than
        // tolerance-based.
        const auto pred = model.predict(x);
        const auto spred = shadow_entry->model->predict(x);
        std::uint64_t diverged = 0;
        double max_abs = 0.0;
        for (std::size_t r = 0; r < group.slots.size(); ++r) {
          responses[r].values = {pred[r], spred[r]};
          if (std::memcmp(&pred[r], &spred[r], sizeof(double)) != 0) {
            ++diverged;
            const double d = std::abs(pred[r] - spred[r]);
            if (d > max_abs) max_abs = d;
          }
        }
        n_shadow_requests_.fetch_add(group.slots.size(),
                                     std::memory_order_relaxed);
        IOTAX_OBS_COUNT("shadow.requests",
                        static_cast<std::uint64_t>(group.slots.size()));
        if (diverged > 0) {
          n_shadow_diverged_.fetch_add(diverged, std::memory_order_relaxed);
          IOTAX_OBS_COUNT("shadow.diverged", diverged);
        }
        {
          std::lock_guard<std::mutex> lock(shadow_mu_);
          if (max_abs > max_abs_divergence_) max_abs_divergence_ = max_abs;
          IOTAX_OBS_GAUGE("shadow.max_abs_divergence", max_abs_divergence_);
        }
      } else {
        const auto pred = model.predict(x);
        for (std::size_t r = 0; r < group.slots.size(); ++r) {
          responses[r].values = {pred[r]};
        }
      }
    } catch (const std::exception& e) {
      ok = false;
      for (const auto slot : group.slots) {
        refuse(batch[slot].session, batch[slot].req.request_id,
               ServeStatus::kInternal, std::nullopt, e.what());
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    if (!ok) continue;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < group.slots.size(); ++r) {
      const auto slot = group.slots[r];
      responses[r].request_id = batch[slot].req.request_id;
      write_frame(*batch[slot].session, encode_predict_response(responses[r]));
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      n_responses_.fetch_add(1, std::memory_order_relaxed);
      IOTAX_OBS_COUNT("serve.responses", 1);
      if (obs::enabled()) {
        const double ms =
            std::chrono::duration<double, std::milli>(
                now - batch[slot].t_enqueue)
                .count();
        IOTAX_OBS_HIST_MS("serve.request_ms", ms);
      }
    }
  }
  IOTAX_OBS_GAUGE("serve.inflight",
                  static_cast<double>(
                      inflight_.load(std::memory_order_relaxed)));
}

}  // namespace iotax::serve
