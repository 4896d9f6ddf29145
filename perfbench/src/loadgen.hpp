// Load generators for the serving workloads.
//
// run_step is open-loop: seeded Poisson arrivals at a fixed rate, spread
// over a few connections, each with one sender and one receiver thread.
// Latency is timed from each request's *due* time, not from when it was
// sent, so a stall in the generator or the server also counts against
// every request queued behind it. The sender's own lateness (send time -
// due time) is reported as lag; a step whose generator fell behind is
// marked generator-bound.
//
// run_saturation is closed-loop: each connection keeps a fixed number of
// requests outstanding, so it measures the server's capacity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Request rows and the value offline Regressor::predict gives for each.
struct RequestRows {
  std::size_t n_cols = 0;
  std::vector<double> x;              // row-major, n_rows * n_cols
  std::vector<double> y;              // true targets (log10 throughput)
  std::vector<std::uint64_t> expect;  // bit patterns of offline predictions
  std::size_t n_rows() const { return y.size(); }
};

struct StepPlan {
  std::string name;
  double rate = 0.0;         // requests per second
  double seconds = 1.0;      // schedule length (at least min_samples / rate)
  std::size_t min_samples = 1000;
  std::uint64_t seed = 1;
  std::size_t connections = 1;
  double grace_s = 1.0;      // wait this long after the last due time
  bool corrupt_one = false;  // flip one received value (self-test)
};

struct StepResult {
  std::string name;
  double rate = 0.0;
  std::size_t scheduled = 0;   // requests on the seeded schedule
  std::size_t sent = 0;        // requests written to the server
  std::size_t unsent = 0;      // scheduled, never written: the sender was
                               // blocked by server backpressure at the end
  std::size_t ok = 0;
  std::size_t busy = 0;
  std::size_t errors = 0;      // typed error replies other than BUSY
  std::size_t unanswered = 0;  // sent, no reply by the end of the step
  std::size_t mismatched = 0;  // served value != offline prediction
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  double first_quarter_p50_ms = 0.0;
  double last_quarter_p50_ms = 0.0;
  double sent_rate = 0.0;      // achieved send rate
  double schedule_rate = 0.0;  // the seeded schedule's own rate

  std::size_t failed() const { return busy + errors + unanswered + unsent; }
  /// The generator could not hold the schedule.
  bool generator_bound() const;
  /// Latency kept climbing through the step.
  bool backlog_growing() const;
  /// The server did not keep up: requests failed, a backlog grew, or it
  /// pushed back until the sender fell behind. Uses no tail percentile,
  /// so host preemption spikes do not trigger it.
  bool overloaded() const;
};

struct SaturationResult {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;      // BUSY, error or unanswered
  std::size_t mismatched = 0;  // served value != offline prediction
  double wall_s = 0.0;         // first send to last reply
  double rate() const { return wall_s > 0.0 ? ok / wall_s : 0.0; }
};

/// Each of `connections` clients keeps `window` requests outstanding for
/// `seconds`, sending the next as each reply arrives.
SaturationResult run_saturation(const std::string& socket,
                                const RequestRows& rows,
                                std::size_t connections, std::size_t window,
                                double seconds, std::uint64_t seed);

/// Connect `plan.connections` clients to the unix socket `socket` and run
/// one open-loop step over `rows`.
StepResult run_step(const std::string& socket, const RequestRows& rows,
                    const StepPlan& plan);

}  // namespace perfbench
