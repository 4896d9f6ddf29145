#include "loadgen.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "src/serve/client.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

enum : std::uint8_t { kNone = 0, kOk = 1, kBusy = 2, kError = 3 };

// A sender more than this late at p99 is the bottleneck, not the server
// (half the 5 ms p99 budget the rate ladder holds servers to).
constexpr double kLagLimitMs = 2.5;

void sleep_until(double t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

}  // namespace

bool StepResult::generator_bound() const {
  return lag_p99_ms > kLagLimitMs || sent_rate < 0.95 * schedule_rate;
}

bool StepResult::overloaded() const {
  return failed() > 0 || backlog_growing() || sent_rate < 0.95 * schedule_rate;
}

bool StepResult::backlog_growing() const {
  return last_quarter_p50_ms > 2.0 * first_quarter_p50_ms + 0.5;
}

StepResult run_step(const std::string& socket, const RequestRows& rows,
                    const StepPlan& plan) {
  const auto n = std::max<std::size_t>(
      plan.min_samples,
      static_cast<std::size_t>(std::ceil(plan.rate * plan.seconds)));
  const std::size_t n_conn = std::max<std::size_t>(1, plan.connections);

  // Seeded schedule: exponential gaps (Poisson arrivals) and a random
  // starting row, then rows in order so every held-out row is served.
  iotax::util::Rng rng(plan.seed);
  std::vector<double> due(n);
  double t = 0.0;
  for (auto& d : due) {
    t += rng.exponential(plan.rate);
    d = t;
  }
  const std::size_t row0 = rng.next() % rows.n_rows();
  const auto row_of = [&](std::size_t i) { return (row0 + i) % rows.n_rows(); };

  // send_t[i] is set once request i was written in full; a request the
  // sender never wrote (it was blocked on a full socket when the step
  // ended) keeps 0 and counts as unsent.
  std::vector<double> send_t(n, 0.0), recv_t(n, 0.0);
  std::vector<std::uint8_t> status(n, kNone);
  std::vector<std::uint8_t> mismatch(n, 0);

  std::vector<iotax::serve::Client> clients;
  for (std::size_t c = 0; c < n_conn; ++c) {
    clients.push_back(iotax::serve::Client::connect_unix(socket, 5000));
    clients.back().set_recv_timeout_ms(20);
  }
  const double t0 = wall_now() + 0.02;
  const double deadline = t0 + due.back() + plan.grace_s;

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n_conn; ++c) {
    threads.emplace_back([&, c] {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      iotax::serve::PredictRequest req;
      try {
        for (std::size_t i = c; i < n; i += n_conn) {
          sleep_until(t0 + due[i]);
          const double at = wall_now();
          if (at > deadline) break;
          req.request_id = i + 1;
          const double* src = rows.x.data() + row_of(i) * rows.n_cols;
          req.features.assign(src, src + rows.n_cols);
          // A request frame is far smaller than a unix socket's send
          // buffer, so the kernel writes it whole or not at all: the
          // receiver's shutdown_write() below fails a blocked send
          // without leaving a cut frame behind.
          clients[c].send_raw(iotax::serve::encode_predict_request(req));
          send_t[i] = at;
        }
      } catch (const std::exception&) {
        // Peer gone or the step ended: what was not written is unsent.
      }
    });
    threads.emplace_back([&, c] {
      std::size_t expected = 0;
      for (std::size_t i = c; i < n; i += n_conn) ++expected;
      bool corrupt = plan.corrupt_one && c == 0;
      iotax::serve::Client::Reply reply;
      for (std::size_t got = 0; got < expected;) {
        try {
          if (!clients[c].read_reply(&reply)) break;
        } catch (const iotax::serve::Client::Timeout&) {
          if (wall_now() > deadline) break;
          continue;
        } catch (const std::exception&) {
          break;
        }
        const double now = wall_now();
        const std::uint64_t i = reply.request_id - 1;
        if (reply.request_id == 0 || i >= n || i % n_conn != c ||
            status[i] != kNone) {
          continue;
        }
        ++got;
        recv_t[i] = now;
        if (reply.type == iotax::util::FrameType::kPredictResponse &&
            !reply.predict.values.empty()) {
          status[i] = kOk;
          std::uint64_t bits = 0;
          std::memcpy(&bits, reply.predict.values.data(), sizeof bits);
          if (corrupt) {
            bits ^= 1;
            corrupt = false;
          }
          mismatch[i] = bits != rows.expect[row_of(i)];
        } else if (reply.type == iotax::util::FrameType::kErrorResponse &&
                   reply.error.status == iotax::serve::ServeStatus::kBusy) {
          status[i] = kBusy;
        } else {
          status[i] = kError;
        }
      }
      // End of step: a sender still blocked on a full socket (the server
      // pushed back) gives up; the rest of its schedule is unsent.
      clients[c].shutdown_write();
    });
  }
  for (auto& th : threads) th.join();
  for (auto& cl : clients) cl.close();

  StepResult r;
  r.name = plan.name;
  r.rate = plan.rate;
  r.scheduled = n;
  std::vector<double> lat(n), lag;
  lag.reserve(n);
  double first_send = 0.0, last_send = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double due_at = t0 + due[i];
    switch (status[i]) {
      case kOk: ++r.ok; break;
      case kBusy: ++r.busy; break;
      case kError: ++r.errors; break;
      default: ++(send_t[i] > 0.0 ? r.unanswered : r.unsent); break;
    }
    r.mismatched += mismatch[i];
    // A failed or unanswered request misses any latency limit: it counts
    // as waiting until the step ended.
    lat[i] = 1000.0 * ((status[i] == kOk ? recv_t[i] : deadline) - due_at);
    if (send_t[i] > 0.0) {
      lag.push_back(1000.0 * (send_t[i] - due_at));
      if (first_send == 0.0 || send_t[i] < first_send) first_send = send_t[i];
      last_send = std::max(last_send, send_t[i]);
    }
  }
  r.p50_ms = percentile(lat, 0.50);
  r.p99_ms = percentile(lat, 0.99);
  r.lag_p99_ms = percentile(lag, 0.99);
  const std::size_t q = std::max<std::size_t>(1, n / 4);
  r.first_quarter_p50_ms =
      percentile(std::vector<double>(lat.begin(), lat.begin() + q), 0.5);
  r.last_quarter_p50_ms =
      percentile(std::vector<double>(lat.end() - q, lat.end()), 0.5);
  r.sent = lag.size();
  r.sent_rate = last_send > first_send
                    ? static_cast<double>(lag.size() - 1) / (last_send - first_send)
                    : 0.0;
  r.schedule_rate =
      n > 1 ? static_cast<double>(n - 1) / (due.back() - due.front()) : 0.0;
  return r;
}

SaturationResult run_saturation(const std::string& socket,
                                const RequestRows& rows,
                                std::size_t connections, std::size_t window,
                                double seconds, std::uint64_t seed) {
  const std::size_t n_conn = std::max<std::size_t>(1, connections);
  std::vector<SaturationResult> per(n_conn);
  std::vector<double> first(n_conn, 0.0), last(n_conn, 0.0);
  iotax::util::Rng rng(seed);
  const std::size_t row0 = rng.next() % rows.n_rows();
  const double start = wall_now();
  const double stop_at = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n_conn; ++c) {
    threads.emplace_back([&, c] {
      auto& res = per[c];
      try {
        auto client = iotax::serve::Client::connect_unix(socket, 5000);
        client.set_recv_timeout_ms(2000);
        // Request ids are local to the connection; row = id's position.
        std::vector<std::size_t> row_of_id;
        iotax::serve::PredictRequest req;
        const auto send_next = [&] {
          const std::size_t row = (row0 + c + n_conn * row_of_id.size()) %
                                  rows.n_rows();
          row_of_id.push_back(row);
          req.request_id = row_of_id.size();
          const double* src = rows.x.data() + row * rows.n_cols;
          req.features.assign(src, src + rows.n_cols);
          client.send_raw(iotax::serve::encode_predict_request(req));
          ++res.sent;
        };
        first[c] = wall_now();
        for (std::size_t w = 0; w < window; ++w) send_next();
        iotax::serve::Client::Reply reply;
        std::size_t answered = 0;
        while (answered < res.sent) {
          if (!client.read_reply(&reply)) break;
          ++answered;
          const std::uint64_t id = reply.request_id;
          if (id == 0 || id > row_of_id.size()) {
            ++res.failed;
            continue;
          }
          if (reply.type == iotax::util::FrameType::kPredictResponse &&
              !reply.predict.values.empty()) {
            ++res.ok;
            std::uint64_t bits = 0;
            std::memcpy(&bits, reply.predict.values.data(), sizeof bits);
            res.mismatched += bits != rows.expect[row_of_id[id - 1]];
          } else {
            ++res.failed;
          }
          last[c] = wall_now();
          if (last[c] < stop_at) send_next();
        }
        res.failed += res.sent - answered;
      } catch (const std::exception&) {
        res.failed = res.sent - res.ok;
      }
    });
  }
  for (auto& th : threads) th.join();
  SaturationResult total;
  double t_first = 0.0, t_last = 0.0;
  for (std::size_t c = 0; c < n_conn; ++c) {
    total.sent += per[c].sent;
    total.ok += per[c].ok;
    total.failed += per[c].failed;
    total.mismatched += per[c].mismatched;
    if (t_first == 0.0 || first[c] < t_first) t_first = first[c];
    t_last = std::max(t_last, last[c]);
  }
  total.wall_s = t_last > t_first ? t_last - t_first : 0.0;
  return total;
}

}  // namespace perfbench
