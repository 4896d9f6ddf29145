// The fault-tolerant serving fleet: backoff/deadline primitives, the
// consistent-hash slot function, chaos-plan parsing, and the router end
// to end over static replica groups of live and misbehaving shards —
// retry, BUSY back-off, failover and kDegraded per request, pipelined
// batches, late replies, drop/delay chaos, and bit-identity to offline
// predictions throughout; and the supervisor over exec'd shard daemons.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/data/matrix.hpp"
#include "src/faults/chaos.hpp"
#include "src/ml/gbt.hpp"
#include "src/serve/client.hpp"
#include "src/serve/fleet.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/backoff.hpp"
#include "src/util/frame.hpp"
#include "src/util/json.hpp"
#include "src/util/quarantine.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

using util::FrameDecode;
using util::FrameHeader;
using util::FrameType;
using util::Reason;

// -- backoff and deadline ---------------------------------------------------

TEST(FleetBackoff, ExactScheduleWithoutJitter) {
  util::BackoffPolicy p;
  p.initial_ms = 10;
  p.max_ms = 100;
  p.multiplier = 2.0;
  p.jitter = 0.0;
  util::Rng rng(1);
  EXPECT_EQ(util::backoff_delay_ms(p, 0, rng), 10u);
  EXPECT_EQ(util::backoff_delay_ms(p, 1, rng), 20u);
  EXPECT_EQ(util::backoff_delay_ms(p, 2, rng), 40u);
  EXPECT_EQ(util::backoff_delay_ms(p, 3, rng), 80u);
  EXPECT_EQ(util::backoff_delay_ms(p, 4, rng), 100u);  // capped
  EXPECT_EQ(util::backoff_delay_ms(p, 40, rng), 100u);  // stays capped
}

TEST(FleetBackoff, JitterIsDeterministicPerSeedAndBounded) {
  util::BackoffPolicy p;
  p.initial_ms = 8;
  p.max_ms = 64;
  p.jitter = 0.5;
  std::vector<std::uint64_t> a, b;
  util::Rng ra(42), rb(42);
  for (std::size_t k = 0; k < 16; ++k) {
    a.push_back(util::backoff_delay_ms(p, k, ra));
    b.push_back(util::backoff_delay_ms(p, k, rb));
  }
  // Same seed -> the exact same delay sequence: chaos tests replay.
  EXPECT_EQ(a, b);
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_LE(a[k], static_cast<std::uint64_t>(64 * 1.5) + 1) << "k=" << k;
  }
  // A different seed diverges somewhere (jitter is real).
  util::Rng rc(43);
  std::vector<std::uint64_t> c;
  for (std::size_t k = 0; k < 16; ++k) {
    c.push_back(util::backoff_delay_ms(p, k, rc));
  }
  EXPECT_NE(a, c);
}

TEST(FleetBackoff, PolicyValidation) {
  util::BackoffPolicy ok;
  EXPECT_NO_THROW(ok.validate());
  util::BackoffPolicy bad = ok;
  bad.multiplier = 0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.jitter = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.initial_ms = 100;
  bad.max_ms = 10;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FleetBackoff, DeadlineSlicesTheBudget) {
  const auto inf = util::Deadline::infinite();
  EXPECT_TRUE(inf.is_infinite());
  EXPECT_FALSE(inf.expired());
  EXPECT_EQ(inf.remaining_ms(), ~0ULL);
  EXPECT_EQ(inf.slice_ms(5), 5u);    // cap applies even to forever
  EXPECT_EQ(inf.slice_ms(0), ~0ULL);  // no cap: the full remainder

  const auto d = util::Deadline::after_ms(200);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_LE(d.remaining_ms(), 200u);
  EXPECT_LE(d.slice_ms(50), 50u);
  EXPECT_LE(d.slice_ms(0), 200u);  // uncapped slice == remainder

  const auto tiny = util::Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(tiny.expired());
  EXPECT_EQ(tiny.remaining_ms(), 0u);
  EXPECT_EQ(tiny.slice_ms(50), 0u);
}

// -- consistent-hash slot ---------------------------------------------------

TEST(FleetSlot, DeterministicInRangeAndSpreads) {
  serve::PredictRequest req;
  req.features = {1.5, -2.25, 0.0};
  EXPECT_EQ(serve::fleet_slot(req, 1), 0u);
  const std::size_t s4 = serve::fleet_slot(req, 4);
  EXPECT_LT(s4, 4u);
  EXPECT_EQ(serve::fleet_slot(req, 4), s4);  // pure function of the request

  // The model index participates in the routing identity.
  serve::PredictRequest other = req;
  other.model_index = 1;
  // (Different identity; equal slots are possible but both in range.)
  EXPECT_LT(serve::fleet_slot(other, 4), 4u);

  // 256 random rows across 4 groups must touch every group — an empty
  // group would mean the hash is degenerate.
  util::Rng rng(7);
  std::vector<std::size_t> hits(4, 0);
  for (int i = 0; i < 256; ++i) {
    serve::PredictRequest r;
    for (int c = 0; c < 5; ++c) r.features.push_back(rng.uniform(-3.0, 3.0));
    ++hits[serve::fleet_slot(r, 4)];
  }
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_GT(hits[g], 0u) << "group " << g << " never hit";
  }
}

TEST(FleetSlot, RoutesByBitPatternNotValue) {
  // -0.0 == 0.0 as values but not as bit patterns; the slot must follow
  // the bits, mirroring how the answer itself is computed.
  serve::PredictRequest pos, neg;
  pos.features = {0.0, 1.0};
  neg.features = {-0.0, 1.0};
  bool diverged = false;
  for (std::size_t n = 2; n <= 64 && !diverged; ++n) {
    diverged = serve::fleet_slot(pos, n) != serve::fleet_slot(neg, n);
  }
  EXPECT_TRUE(diverged);
}

// -- shard configuration ----------------------------------------------------

TEST(FleetConfig, ShardBatchingDefaultsAreServeConfigs) {
  const serve::ServeConfig serve_cfg;
  const serve::SupervisorConfig sup;
  EXPECT_EQ(serve_cfg.batch_wait_us, 0u);  // work-conserving by default
  EXPECT_EQ(sup.batch_size, serve_cfg.batch_size);
  EXPECT_EQ(sup.batch_wait_us, serve_cfg.batch_wait_us);
  EXPECT_EQ(sup.max_inflight, serve_cfg.max_inflight);
}

// -- chaos plans ------------------------------------------------------------

TEST(FleetChaosPlan, ParsesAndReportsGroundTruth) {
  const auto plan = faults::ChaosPlan::from_json(util::Json::parse(R"({
    "seed": 7, "accept_delay_ms": 2, "events": [
      {"at_request": 100, "action": "kill",  "group": 0, "replica": 1},
      {"at_request": 400, "action": "hang",  "group": 1, "replica": 0},
      {"at_request": 700, "action": "drop",  "group": 0, "replica": 0},
      {"at_request": 900, "action": "delay", "group": 1, "replica": 1,
       "delay_ms": 5}]})"));
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.accept_delay_ms, 2u);
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.expected_restarts(), 2u);  // kill + hang, not drop/delay
  EXPECT_EQ(plan.count(faults::ChaosAction::kKill), 1u);
  EXPECT_EQ(plan.count(faults::ChaosAction::kDrop), 1u);
  EXPECT_NO_THROW(plan.validate(2, 2));
  // Shape checks catch events addressing shards that do not exist.
  EXPECT_THROW(plan.validate(1, 2), std::invalid_argument);
  EXPECT_THROW(plan.validate(2, 1), std::invalid_argument);

  // to_json -> from_json survives the round trip.
  const auto again = faults::ChaosPlan::from_json(plan.to_json());
  ASSERT_EQ(again.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(again.events[i].at_request, plan.events[i].at_request);
    EXPECT_EQ(again.events[i].action, plan.events[i].action);
    EXPECT_EQ(again.events[i].group, plan.events[i].group);
    EXPECT_EQ(again.events[i].replica, plan.events[i].replica);
    EXPECT_EQ(again.events[i].delay_ms, plan.events[i].delay_ms);
  }
}

TEST(FleetChaosPlan, RejectsDefects) {
  const auto parse = [](const char* text) {
    return faults::ChaosPlan::from_json(util::Json::parse(text));
  };
  // A typo must not silently run a zero-chaos plan.
  EXPECT_THROW(parse(R"({"sead": 7})"), std::invalid_argument);
  EXPECT_THROW(
      parse(R"({"events": [{"at_request": 1, "action": "kill", "grup": 0}]})"),
      std::invalid_argument);
  // Unknown action name.
  EXPECT_THROW(parse(R"({"events": [{"at_request": 1, "action": "melt"}]})"),
               std::invalid_argument);
  // at_request is 1-based; 0 would "fire before a request that never
  // happened".
  EXPECT_THROW(parse(R"({"events": [{"at_request": 0, "action": "kill"}]})"),
               std::invalid_argument);
  // Events must arrive sorted so the router can walk one cursor.
  EXPECT_THROW(parse(R"({"events": [
      {"at_request": 9, "action": "kill"},
      {"at_request": 3, "action": "kill"}]})"),
               std::invalid_argument);
  // delay_ms only belongs on delay events.
  EXPECT_THROW(parse(R"({"events": [
      {"at_request": 1, "action": "kill", "delay_ms": 5}]})"),
               std::invalid_argument);
}

// -- a scriptable fake shard ------------------------------------------------

/// Raw unix-socket peer that speaks just enough of the serve protocol
/// to misbehave on demand: answer BUSY n times before serving, stall
/// before its first answer, or stay silent forever. The real daemon
/// cannot be told to do any of these deterministically, and determinism
/// is the point of these tests.
class FakeShard {
 public:
  FakeShard(std::string path, std::size_t busy_first_n, bool silent,
            std::uint64_t stall_first_ms = 0)
      : path_(std::move(path)),
        busy_left_(busy_first_n),
        silent_(silent),
        stall_first_ms_(stall_first_ms) {
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd_, 8) < 0) {
      throw std::runtime_error("fake shard: cannot listen on " + path_);
    }
    thread_ = std::thread([this] { loop(); });
  }

  ~FakeShard() { stop(); }

  void stop() {
    if (stopping_.exchange(true)) return;
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  std::uint64_t served() const { return served_.load(); }
  std::uint64_t busy_sent() const { return busy_sent_.load(); }

  /// The prediction a feature row maps to (what the client must see).
  /// A function of the payload, not the id: the router re-tags ids.
  static double value_for(const std::vector<double>& features) {
    return features.at(0) * 2.0 + 0.25;
  }

 private:
  void loop() {
    while (!stopping_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd < 0) continue;
      serve_connection(cfd);
      ::close(cfd);
    }
  }

  void serve_connection(int fd) {
    std::vector<std::uint8_t> buf;
    std::size_t start = 0;
    std::uint8_t chunk[4096];
    while (!stopping_.load()) {
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 20);
      if (rc < 0) return;
      if (rc == 0) continue;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buf.insert(buf.end(), chunk, chunk + n);
      while (true) {
        const auto view = std::span<const std::uint8_t>(buf).subspan(start);
        const FrameDecode dec = util::decode_frame(view);
        if (dec.status != FrameDecode::Status::kOk) break;
        handle(fd, dec.header,
               view.subspan(FrameHeader::kWireSize, dec.header.payload_len));
        start += dec.consumed;
      }
    }
  }

  void handle(int fd, const FrameHeader& header,
              std::span<const std::uint8_t> payload) {
    if (silent_) return;  // reads everything, answers nothing
    const auto type = static_cast<FrameType>(header.type);
    if (type == FrameType::kPing) {
      send_all(fd, serve::encode_pong(header.request_id));
      return;
    }
    if (type != FrameType::kPredictRequest) return;
    serve::PredictRequest req;
    serve::ErrorResponse err;
    if (!serve::decode_predict_request(header, payload, &req, &err)) return;
    if (stall_first_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_first_ms_));
      stall_first_ms_ = 0;
    }
    std::size_t expect = busy_left_.load();
    while (expect > 0 &&
           !busy_left_.compare_exchange_weak(expect, expect - 1)) {
    }
    if (expect > 0) {
      serve::ErrorResponse busy;
      busy.request_id = req.request_id;
      busy.status = serve::ServeStatus::kBusy;
      busy.detail = "scripted shed";
      send_all(fd, serve::encode_error_response(busy));
      busy_sent_.fetch_add(1);
      return;
    }
    serve::PredictResponse resp;
    resp.request_id = req.request_id;
    resp.values = {value_for(req.features)};
    send_all(fd, serve::encode_predict_response(resp));
    served_.fetch_add(1);
  }

  static void send_all(int fd, std::string_view bytes) {
    const char* p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
      const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
      if (n <= 0) return;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  std::string path_;
  std::atomic<std::size_t> busy_left_;
  bool silent_;
  std::uint64_t stall_first_ms_;  // shard thread only
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> busy_sent_{0};
};

// -- fixture: a trained checkpoint and live shard servers -------------------

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

Xy make_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(n, 5);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 5; ++c) d.x(i, c) = rng.uniform(-3.0, 3.0);
    d.y[i] = std::sin(d.x(i, 0)) + 0.3 * d.x(i, 1) * d.x(i, 2) +
             rng.normal(0.0, 0.05);
  }
  return d;
}

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_ = new Xy(make_data(300, 21));
    probe_ = new Xy(make_data(48, 22));
    ml::GbtParams p;
    p.n_estimators = 10;
    p.max_depth = 4;
    model_ = new ml::GradientBoostedTrees(p);
    model_->fit(train_->x, train_->y);
    // gtest_discover_tests runs every test in its own process, so under
    // ctest -j sibling processes set up this suite concurrently; a
    // per-process path keeps one from reading another's half-written
    // checkpoint.
    model_path_ = ::testing::TempDir() + "fleet_test_model_" +
                  std::to_string(::getpid()) + ".gbt";
    std::ofstream out(model_path_);
    ASSERT_TRUE(out.is_open());
    model_->save(out);
  }

  static void TearDownTestSuite() {
    std::remove(model_path_.c_str());
    delete train_;
    delete probe_;
    delete model_;
    train_ = nullptr;
    probe_ = nullptr;
    model_ = nullptr;
  }

  static std::string sock_path(const char* tag) {
    return ::testing::TempDir() + "fleet_test_" + tag + ".sock";
  }

  /// A shard: a real in-process daemon on its own unix socket.
  static serve::ServeConfig shard_config(const char* tag) {
    serve::ServeConfig cfg;
    cfg.model_files = {model_path_};
    cfg.unix_socket = sock_path(tag);
    return cfg;
  }

  static serve::PredictRequest request_for_row(std::size_t row,
                                               std::uint64_t id) {
    serve::PredictRequest req;
    req.request_id = id;
    const auto src = probe_->x.row(row);
    req.features.assign(src.begin(), src.end());
    return req;
  }

  /// A router over static groups with a fast, test-friendly retry
  /// policy: small budget, tight backoff.
  static serve::RouterConfig router_config(
      const char* tag, std::vector<std::vector<serve::Endpoint>> groups,
      std::uint64_t deadline_ms = 2000) {
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path(tag);
    cfg.static_groups = std::move(groups);
    cfg.deadline_ms = deadline_ms;
    cfg.try_timeout_ms = 100;
    cfg.retry_backoff = {/*initial_ms=*/1, /*max_ms=*/8, /*multiplier=*/2.0,
                         /*jitter=*/0.25};
    return cfg;
  }

  static serve::Endpoint at(const char* tag) {
    return serve::Endpoint::unix_path(sock_path(tag));
  }

  /// One request through a router, synchronously.
  static serve::Client::Reply ask(const serve::RouterConfig& cfg,
                                  const serve::PredictRequest& req) {
    auto client = serve::Client::connect_unix(cfg.unix_socket);
    client.set_recv_timeout_ms(10000);
    client.send_predict(req);
    serve::Client::Reply reply;
    EXPECT_TRUE(client.read_reply(&reply));
    return reply;
  }

  static Xy* train_;
  static Xy* probe_;
  static ml::GradientBoostedTrees* model_;
  static std::string model_path_;
};

Xy* FleetTest::train_ = nullptr;
Xy* FleetTest::probe_ = nullptr;
ml::GradientBoostedTrees* FleetTest::model_ = nullptr;
std::string FleetTest::model_path_;

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    EXPECT_EQ(ba, bb) << "row " << i;
  }
}

// -- retrying client --------------------------------------------------------

TEST_F(FleetTest, ClientRecvTimeoutIsTypedNotHung) {
  // Satellite contract: a daemon that accepts and then goes silent must
  // surface as Client::Timeout (Reason::kDeadlineExpired), not block
  // the caller forever and not read as a vanished peer.
  FakeShard mute(sock_path("mute"), 0, /*silent=*/true);
  auto client = serve::Client::connect_unix(sock_path("mute"));
  client.set_recv_timeout_ms(100);
  client.send_ping(1);
  serve::Client::Reply reply;
  EXPECT_THROW(client.read_reply(&reply), serve::Client::Timeout);
  static_assert(serve::Client::Timeout::kReason == Reason::kDeadlineExpired);
  mute.stop();
}

TEST_F(FleetTest, ClientConnectTimeoutIsTypedNotHung) {
  // A listener that never accepts, with its backlog full: a connect
  // bounded at 100 ms must give up with Client::Timeout instead of
  // blocking. A listener that is not there is a transport error.
  const std::string path = sock_path("full");
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(fd, 0), 0);
  std::vector<serve::Client> queued;  // fill the backlog
  for (int i = 0; i < 4; ++i) {
    try {
      queued.push_back(serve::Client::connect_unix(path, 50));
    } catch (const serve::Client::Timeout&) {
      break;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(serve::Client::connect_unix(path, 100), serve::Client::Timeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_THROW(
      {
        try {
          serve::Client::connect_unix(sock_path("nobody_here"), 100);
        } catch (const serve::Client::Timeout&) {
          FAIL() << "a refused connect read as a timeout";
        }
      },
      std::runtime_error);
  ::close(fd);
  ::unlink(path.c_str());
}

// -- per-request retry state in the router ----------------------------------

TEST_F(FleetTest, RouterFailsOverFromDeadReplica) {
  serve::Server live(shard_config("fo_live"));
  live.start();
  // Replica 0 does not exist; the request must fail over to replica 1
  // inside the deadline and still return the real answer.
  const auto cfg =
      router_config("fo_dead_front", {{at("fo_dead"), at("fo_live")}});
  serve::Router router(cfg);
  router.start();
  const auto offline = model_->predict(probe_->x);
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  serve::Client::Reply reply;
  client.send_predict(request_for_row(0, 1));
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
  EXPECT_EQ(reply.request_id, 1u);
  expect_bit_identical(reply.predict.values, {offline[0]});
  EXPECT_EQ(router.stats().failovers, 1u);
  EXPECT_EQ(router.stats().retries, 1u);
  // The session now prefers the live replica: later requests are
  // first-try.
  client.send_predict(request_for_row(1, 2));
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kPredictResponse);
  expect_bit_identical(reply.predict.values, {offline[1]});
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.responses, 2u);
  live.stop();
}

TEST_F(FleetTest, RouterAbsorbsBusyOnSameReplica) {
  // Two scripted BUSY sheds, then service. BUSY must be retried on the
  // SAME replica (no failover — the queue needs a moment, the process
  // is fine) and never surface to the client.
  FakeShard shard(sock_path("busy"), /*busy_first_n=*/2, /*silent=*/false);
  const auto cfg = router_config("busy_front", {{at("busy")}});
  serve::Router router(cfg);
  router.start();
  const auto req = request_for_row(0, 9);
  const auto reply = ask(cfg, req);
  ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
  EXPECT_EQ(reply.request_id, 9u);
  ASSERT_EQ(reply.predict.values.size(), 1u);
  EXPECT_EQ(reply.predict.values[0], FakeShard::value_for(req.features));
  router.stop();
  EXPECT_EQ(shard.busy_sent(), 2u);
  // The shard thread bumps served() after writing the reply; give its
  // scheduler slice a moment before asserting.
  const auto served_deadline = util::Deadline::after_ms(2000);
  while (shard.served() == 0 && !served_deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(shard.served(), 1u);
  const auto stats = router.stats();
  EXPECT_EQ(stats.busy_retries, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.errors, 0u);
  shard.stop();
}

TEST_F(FleetTest, RouterDegradesWhenNoReplicaAnswers) {
  const auto cfg = router_config(
      "void_front", {{at("void_a"), at("void_b")}}, /*deadline_ms=*/200);
  serve::Router router(cfg);
  router.start();
  const auto t0 = std::chrono::steady_clock::now();
  const auto reply = ask(cfg, request_for_row(0, 1));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_EQ(reply.type, FrameType::kErrorResponse);
  EXPECT_EQ(reply.error.status, serve::ServeStatus::kDegraded);
  EXPECT_EQ(reply.request_id, 1u);
  ASSERT_TRUE(reply.error.reason.has_value());
  EXPECT_EQ(*reply.error.reason, Reason::kConnectionReset);
  EXPECT_NE(reply.error.detail.find("replica group unavailable"),
            std::string::npos)
      << reply.error.detail;
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_GE(stats.retries, 1u);
  // The deadline bounds the pain: well past 200ms would mean the retry
  // state ignores its budget. Generous slack for slow CI machines.
  EXPECT_LT(elapsed, 2000);
}

TEST_F(FleetTest, RouterPassesModelVerdictsThrough) {
  serve::Server live(shard_config("verdict"));
  live.start();
  const auto cfg = router_config("verdict_front", {{at("verdict")}});
  serve::Router router(cfg);
  router.start();
  // Unknown model index: a typed answer, not a transport failure — it
  // must come back on the first attempt, not burn the retry budget.
  auto req = request_for_row(0, 5);
  req.model_index = 7;
  const auto reply = ask(cfg, req);
  ASSERT_EQ(reply.type, FrameType::kErrorResponse);
  EXPECT_EQ(reply.error.status, serve::ServeStatus::kUnknownModel);
  EXPECT_EQ(reply.request_id, 5u);
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.degraded, 0u);
  live.stop();
}

// -- SIGPIPE / half-closed peers --------------------------------------------

TEST_F(FleetTest, ServerSurvivesPeerClosingBeforeTheReply) {
  // Regression for the half-closed-connection death: the peer sends a
  // request and vanishes before the reply is written. The write must
  // fail as EPIPE (SIGPIPE ignored/suppressed), be absorbed, and leave
  // the daemon serving — not kill the process.
  auto cfg = shard_config("halfclosed");
  cfg.batch_wait_us = 50000;  // hold the batch: the reply loses the race
  serve::Server server(cfg);
  server.start();
  {
    auto doomed = serve::Client::connect_unix(cfg.unix_socket);
    doomed.send_predict(request_for_row(0, 1));
    doomed.close();  // gone before the 50ms batch window elapses
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Still alive and still answering.
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  client.send_predict(request_for_row(1, 2));
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPredictResponse);
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().requests, 2u);
}

// -- router over static groups ----------------------------------------------

TEST_F(FleetTest, RouterRoutesBitIdenticalAcrossGroups) {
  serve::Server shard_a(shard_config("route_g0"));
  serve::Server shard_b(shard_config("route_g1"));
  shard_a.start();
  shard_b.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("route_front");
  cfg.static_groups = {
      {serve::Endpoint::unix_path(sock_path("route_g0"))},
      {serve::Endpoint::unix_path(sock_path("route_g1"))}};
  serve::Router router(cfg);
  router.start();

  const auto offline = model_->predict(probe_->x);
  const std::size_t n = probe_->x.rows();
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  for (std::size_t i = 0; i < n; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  std::vector<double> served(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse);
    const auto row = reply.request_id - 1;
    ASSERT_LT(row, n);
    served[row] = reply.predict.values[0];
  }
  client.close();
  router.stop();
  // Every answer is bit-identical to offline — the hash decided where a
  // request ran, never what it answered.
  expect_bit_identical(served, offline);
  const auto stats = router.stats();
  EXPECT_EQ(stats.requests, n);
  EXPECT_EQ(stats.responses, n);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  // Both shards saw traffic (the slot function spreads; with 48 varied
  // rows an idle group would mean routing collapsed to one slot).
  EXPECT_GT(shard_a.stats().requests, 0u);
  EXPECT_GT(shard_b.stats().requests, 0u);
  EXPECT_EQ(shard_a.stats().requests + shard_b.stats().requests, n);
  shard_a.stop();
  shard_b.stop();
}

TEST_F(FleetTest, RouterFailsOverMidLoadWithZeroClientFailures) {
  serve::Server replica_a(shard_config("fo_r0"));
  serve::Server replica_b(shard_config("fo_r1"));
  replica_a.start();
  replica_b.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("fo_front");
  cfg.static_groups = {
      {serve::Endpoint::unix_path(sock_path("fo_r0")),
       serve::Endpoint::unix_path(sock_path("fo_r1"))}};
  serve::Router router(cfg);
  router.start();

  const auto offline = model_->predict(probe_->x);
  const std::size_t n = probe_->x.rows();
  const std::size_t half = n / 2;
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  std::vector<double> served(n, 0.0);
  const auto drain = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      client.send_predict(request_for_row(i, i + 1));
    }
    for (std::size_t i = lo; i < hi; ++i) {
      serve::Client::Reply reply;
      ASSERT_TRUE(client.read_reply(&reply));
      ASSERT_EQ(reply.type, FrameType::kPredictResponse)
          << "request " << reply.request_id << ": " << reply.error.detail;
      served[reply.request_id - 1] = reply.predict.values[0];
    }
  };
  drain(0, half);
  EXPECT_GT(replica_a.stats().requests, 0u);  // the session camped on r0
  // The replica currently serving this session dies mid-load. Every
  // remaining request must still answer, bit-identically, via r1.
  replica_a.stop();
  drain(half, n);
  client.close();
  router.stop();
  expect_bit_identical(served, offline);
  const auto stats = router.stats();
  EXPECT_EQ(stats.responses, n);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GT(replica_b.stats().requests, 0u);
  replica_b.stop();
}

TEST_F(FleetTest, RouterReportsDegradedWhenAGroupIsGone) {
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("deg_front");
  cfg.deadline_ms = 200;
  cfg.try_timeout_ms = 50;
  cfg.static_groups = {
      {serve::Endpoint::unix_path(sock_path("deg_nobody"))}};
  serve::Router router(cfg);
  router.start();
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  client.send_predict(request_for_row(0, 1));
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kErrorResponse);
  EXPECT_EQ(reply.error.status, serve::ServeStatus::kDegraded);
  ASSERT_TRUE(reply.error.reason.has_value());
  EXPECT_EQ(*reply.error.reason, Reason::kConnectionReset);
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  // The terminal transport reason lands in the quarantine ledger under
  // the shared 24-reason vocabulary.
  EXPECT_EQ(router.quarantine().count(Reason::kConnectionReset), 1u);
}

TEST_F(FleetTest, RouterAnswersPingAndRefusesControl) {
  serve::Server shard(shard_config("ctl_g0"));
  shard.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("ctl_front");
  cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("ctl_g0"))}};
  serve::Router router(cfg);
  router.start();
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  serve::Client::Reply reply;
  client.send_ping(3);
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPong);
  EXPECT_EQ(reply.request_id, 3u);
  // Control verbs mutate one registry and the fleet has N of them;
  // routing a promote to a hash-picked shard would fork replica state.
  serve::ControlRequest ctl;
  ctl.request_id = 4;
  ctl.op = serve::ControlOp::kStatus;
  client.send_control(ctl);
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kErrorResponse);
  EXPECT_EQ(reply.error.status, serve::ServeStatus::kBadRequest);
  EXPECT_NE(reply.error.detail.find("not routed"), std::string::npos);
  // The connection survives the refusal.
  client.send_predict(request_for_row(0, 5));
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPredictResponse);
  client.close();
  router.stop();
  shard.stop();
}

TEST_F(FleetTest, RouterDropAndDelayChaosAreInvisibleToClients) {
  serve::Server shard(shard_config("chaos_g0"));
  shard.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("chaos_front");
  cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("chaos_g0"))}};
  cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(R"({
    "events": [
      {"at_request": 2, "action": "drop",  "group": 0, "replica": 0},
      {"at_request": 3, "action": "delay", "group": 0, "replica": 0,
       "delay_ms": 5}]})"));
  serve::Router router(cfg);
  router.start();
  const auto offline = model_->predict(probe_->x);
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  constexpr std::size_t kRequests = 4;
  std::vector<double> served(kRequests, 0.0);
  for (std::size_t i = 0; i < kRequests; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse)
        << "request " << reply.request_id << ": " << reply.error.detail;
    served[reply.request_id - 1] = reply.predict.values[0];
  }
  client.close();
  router.stop();
  expect_bit_identical(
      served, std::vector<double>(offline.begin(), offline.begin() + 4));
  const auto stats = router.stats();
  EXPECT_EQ(stats.responses, kRequests);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.chaos_drops, 1u);
  EXPECT_EQ(stats.chaos_delays, 1u);
  shard.stop();
}

TEST_F(FleetTest, RouterSurvivesPeerClosingBeforeTheReply) {
  // The router-side SIGPIPE regression: the front peer vanishes while
  // the backhaul round-trip is in flight; the reply write hits a dead
  // socket and must be absorbed, not kill the process.
  auto shard_cfg = shard_config("rhc_g0");
  shard_cfg.batch_wait_us = 50000;  // backhaul reply arrives after close
  serve::Server shard(shard_cfg);
  shard.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("rhc_front");
  cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("rhc_g0"))}};
  serve::Router router(cfg);
  router.start();
  {
    auto doomed = serve::Client::connect_unix(cfg.unix_socket);
    doomed.send_predict(request_for_row(0, 1));
    doomed.close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  client.send_predict(request_for_row(1, 2));
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPredictResponse);
  client.close();
  router.stop();
  shard.stop();
}

TEST_F(FleetTest, RouterConfigContractsAreEnforced) {
  {  // Exactly one shard source.
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path("cfg_a");
    serve::Router router(cfg);
    EXPECT_THROW(router.start(), std::invalid_argument);
  }
  {  // A group with no endpoints cannot serve its slot.
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path("cfg_b");
    cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("x"))}, {}};
    serve::Router router(cfg);
    EXPECT_THROW(router.start(), std::invalid_argument);
  }
  {  // kill/hang chaos needs a supervisor to deliver the signal.
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path("cfg_c");
    cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("x"))}};
    cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(
        R"({"events": [{"at_request": 1, "action": "kill"}]})"));
    serve::Router router(cfg);
    EXPECT_THROW(router.start(), std::invalid_argument);
  }
  {  // Chaos events must address shards inside the topology.
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path("cfg_d");
    cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("x"))}};
    cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(
        R"({"events": [{"at_request": 1, "action": "drop", "group": 3}]})"));
    serve::Router router(cfg);
    EXPECT_THROW(router.start(), std::invalid_argument);
  }
}

// -- pipelining and the event loop ------------------------------------------

TEST_F(FleetTest, RouterPipelinesAWindowIntoShardBatches) {
  // A client's window must reach the shard as a window: 16 requests
  // sent back to back land in the shard's 50 ms gather window together,
  // not one batch per request as stop-and-wait forwarding gave.
  auto shard_cfg = shard_config("pipe_g0");
  shard_cfg.batch_wait_us = 50000;
  serve::Server shard(shard_cfg);
  shard.start();
  const auto cfg = router_config("pipe_front", {{at("pipe_g0")}});
  serve::Router router(cfg);
  router.start();
  const auto offline = model_->predict(probe_->x);
  constexpr std::size_t kWindow = 16;
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  for (std::size_t i = 0; i < kWindow; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  std::vector<double> served(kWindow, 0.0);
  for (std::size_t i = 0; i < kWindow; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse);
    served[reply.request_id - 1] = reply.predict.values[0];
  }
  client.close();
  router.stop();
  shard.stop();
  expect_bit_identical(
      served, std::vector<double>(offline.begin(), offline.begin() + kWindow));
  EXPECT_EQ(shard.stats().requests, kWindow);
  EXPECT_LE(shard.stats().batches, 2u);
}

TEST_F(FleetTest, RouterDropsLateRepliesAndAnswersEachIdOnce) {
  // The shard stalls 450 ms before its first answer, past the 300 ms try
  // timeout: every first try is retried under a new backhaul id, and the
  // stalled answers, arriving late, must match nothing. Each client id
  // is answered exactly once, with the shard's value.
  FakeShard shard(sock_path("late"), 0, /*silent=*/false,
                  /*stall_first_ms=*/450);
  auto cfg = router_config("late_front", {{at("late")}}, 5000);
  cfg.try_timeout_ms = 300;
  serve::Router router(cfg);
  router.start();
  constexpr std::size_t kRequests = 8;
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  for (std::size_t i = 0; i < kRequests; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  std::vector<int> answers(kRequests, 0);
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
    const auto row = reply.request_id - 1;
    ASSERT_LT(row, kRequests);
    ++answers[row];
    EXPECT_EQ(reply.predict.values.at(0),
              FakeShard::value_for(request_for_row(row, 0).features));
  }
  EXPECT_EQ(answers, std::vector<int>(kRequests, 1));
  // Nothing else arrives: the late answers were dropped, not relayed.
  client.set_recv_timeout_ms(300);
  serve::Client::Reply extra;
  EXPECT_THROW(client.read_reply(&extra), serve::Client::Timeout);
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.responses, kRequests);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.retries, kRequests);
  EXPECT_EQ(stats.late_replies, kRequests);
  EXPECT_EQ(stats.failovers, 0u);  // one replica: retried in place
  shard.stop();
}

TEST_F(FleetTest, RouterChaosDropWithSixteenInFlightLosesNone) {
  // Sixteen requests sit in a stalled shard when request 17 fires a
  // `drop` of that backhaul. All sixteen go out again on a fresh
  // connection; none is lost or answered twice.
  FakeShard shard(sock_path("drop16"), 0, /*silent=*/false,
                  /*stall_first_ms=*/300);
  auto cfg = router_config("drop16_front", {{at("drop16")}}, 10000);
  cfg.try_timeout_ms = 5000;
  cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(R"({
    "events": [{"at_request": 17, "action": "drop", "group": 0,
                "replica": 0}]})"));
  serve::Router router(cfg);
  router.start();
  constexpr std::size_t kRequests = 17;
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  for (std::size_t i = 0; i + 1 < kRequests; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.send_predict(request_for_row(kRequests - 1, kRequests));
  std::vector<int> answers(kRequests, 0);
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
    const auto row = reply.request_id - 1;
    ASSERT_LT(row, kRequests);
    ++answers[row];
    EXPECT_EQ(reply.predict.values.at(0),
              FakeShard::value_for(request_for_row(row, 0).features));
  }
  EXPECT_EQ(answers, std::vector<int>(kRequests, 1));
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.chaos_drops, 1u);
  EXPECT_EQ(stats.responses, kRequests);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.retries, kRequests - 1);  // each in-flight one, once
  shard.stop();
}

std::size_t count_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST_F(FleetTest, RouterThreadCountIsFlatInConnections) {
  serve::Server shard(shard_config("many_g0"));
  shard.start();
  const auto cfg = router_config("many_front", {{at("many_g0")}});
  serve::Router router(cfg);
  router.start();
  const auto offline = model_->predict(probe_->x);
  ask(cfg, request_for_row(0, 1));  // opens the one backhaul
  const std::size_t before = count_threads();
  constexpr std::size_t kClients = 256;
  std::vector<serve::Client> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(serve::Client::connect_unix(cfg.unix_socket));
    clients.back().send_predict(request_for_row(c % probe_->x.rows(), c + 1));
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    serve::Client::Reply reply;
    ASSERT_TRUE(clients[c].read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse);
    expect_bit_identical(reply.predict.values,
                         {offline[c % probe_->x.rows()]});
  }
  // Every connection is open and has been served; the router (and the
  // shard behind its single backhaul) did it without a thread each.
  EXPECT_EQ(count_threads(), before);
  clients.clear();
  router.stop();
  shard.stop();
  EXPECT_EQ(router.stats().connections, kClients + 1);
  EXPECT_EQ(shard.stats().connections, 1u);
}

// A shard restarted after a crash is forked by the monitor thread, and
// PR_SET_PDEATHSIG ties its life to that thread. stop() must still
// drain it with SIGTERM instead of letting the monitor's exit SIGKILL it.
TEST_F(FleetTest, SupervisorDrainsARestartedShardOnStop) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "fleet_sup_" +
                          std::to_string(::getpid());
  fs::create_directories(dir);
  serve::SupervisorConfig cfg;
  cfg.iotax_bin = IOTAX_CLI_PATH;
  cfg.model_files = {model_path_};
  cfg.shard_dir = dir;
  cfg.n_groups = 1;
  cfg.n_replicas = 1;
  cfg.health_interval_ms = 10;
  cfg.restart_backoff = {/*initial_ms=*/1, /*max_ms=*/1, /*multiplier=*/1.0,
                         /*jitter=*/0.0};
  serve::Supervisor sup(cfg);
  sup.start();
  ASSERT_TRUE(sup.signal_shard(0, 0, SIGKILL));
  // Restarted and serving again: spawn() removes the ready file, the new
  // shard writes it once its listener is up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (sup.stats().restarts < 1 || !fs::exists(dir + "/g0r0.ready")) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "shard was not restarted";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  sup.stop();
  EXPECT_EQ(sup.stats().exits_detected, 1u);
  EXPECT_EQ(sup.stats().restarts, 1u);
  // One log for both lives: the SIGKILLed first shard never drains, so
  // the one drain line is the restarted shard's.
  std::ifstream log(dir + "/g0r0.log");
  const std::string text((std::istreambuf_iterator<char>(log)),
                         std::istreambuf_iterator<char>());
  std::size_t drains = 0;
  for (std::size_t at = text.find("serve: drained");
       at != std::string::npos; at = text.find("serve: drained", at + 1)) {
    ++drains;
  }
  EXPECT_EQ(drains, 1u) << text;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace iotax
