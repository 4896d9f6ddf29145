// The one framed-connection core of the serving tier, shared by the
// daemon (serve/server.hpp) and the fleet router (serve/fleet.hpp): one
// thread runs an epoll loop over the listeners and every accepted client
// connection. It owns the sockets, their buffers and epoll interest,
// read back-pressure, a timer heap and the eventfd that stop() wakes it
// with; what a frame means, and when everything admitted has been
// answered, belong to the Handler. Every Handler callback and every
// member not marked "any thread" runs on the loop thread, so handler
// state needs no lock of its own.
//
// Drain: stop() makes the loop close its listeners and stop reading,
// then keep running until the handler has answered everything admitted
// and every reply is written, or a fixed grace has passed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/frame.hpp"
#include "src/util/quarantine.hpp"

namespace iotax::serve {

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  /// Stop reading a client whose unsent replies pile up past this.
  static constexpr std::size_t kMaxFrontOut = 1 << 20;

  /// One accepted client connection.
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    util::FrameReader in;
    std::string out;
    std::size_t pending = 0;   // admitted, not yet answered (answer())
    bool reading = false;      // off until on_accept allows, and after EOF
    bool eof = false;
    bool blocked = false;      // on_frame asked to wait; see resume()
    std::uint32_t events = 0;  // epoll interest registered now
    bool dirty = false;        // output queued during this wake-up
  };

  class Handler {
   public:
    virtual ~Handler() = default;
    /// A connection was accepted. False holds it unread until resume().
    virtual bool on_accept(Conn& c) = 0;
    /// One whole frame, at c.in.frame() / c.in.payload(). False when the
    /// connection has to wait: it is not parsed further until resume().
    virtual bool on_frame(Conn& c, const util::FrameHeader& header) = 0;
    /// Framing is lost (a bad header, or EOF inside a frame): answer the
    /// defect; the connection is then read no further. `why` is the
    /// detail for the quarantine ledger.
    virtual void on_bad_frame(Conn& c, util::Reason reason, std::string detail,
                              const std::string& why) = 0;
    /// True once everything admitted has been answered (drain is done
    /// when this holds and every reply is written).
    virtual bool drained() const = 0;
    /// The connection is closed and forgotten.
    virtual void on_close(std::uint64_t /*id*/) {}
    /// A descriptor registered with add() has `events`.
    virtual void on_io(std::uint64_t /*token*/, std::uint32_t /*events*/) {}
    /// A timer armed with at() is due.
    virtual void on_timer(std::uint64_t /*token*/) {}
    /// Once per wake-up, after I/O and timers and before client output
    /// is written. Returns when the handler next needs a wake-up for
    /// work of its own (time_point::max() for none).
    virtual Clock::time_point on_tick() { return Clock::time_point::max(); }
  };

  /// Bind the listeners (throws as Listeners::open). `drain_grace`
  /// bounds how long stop() waits for admitted work and unsent replies.
  EventLoop(Handler& handler, const std::string& unix_socket, int tcp_port,
            const char* who, Clock::duration drain_grace);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Start the loop thread.
  void start();
  /// Drain (see the file comment) and join the loop thread. Call from
  /// one thread; a second call returns at once.
  void stop();
  /// Any thread: the bound TCP port, -1 when TCP is disabled.
  int tcp_port() const { return listeners_.tcp_port; }

  /// Time at the start of this wake-up.
  Clock::time_point now() const { return now_; }
  /// Queue bytes for the client; they leave with this wake-up's send.
  void reply(Conn& c, std::string_view bytes);
  /// Queue the answer to one of the connection's admitted requests (it
  /// counts down Conn::pending). A connection that closed gets nothing.
  void answer(std::uint64_t id, std::string_view bytes);
  /// Read and parse a connection held by on_accept or on_frame again.
  void resume(std::uint64_t id);
  /// Call Handler::on_timer(token) once `when` has passed.
  void at(Clock::time_point when, std::uint64_t token);
  /// Watch a descriptor of the handler's own (token < 2^56); closing it
  /// removes it.
  void add(int fd, std::uint32_t events, std::uint64_t token);
  void modify(int fd, std::uint32_t events, std::uint64_t token);

  /// One non-blocking send() of as much of `out` as the socket takes;
  /// false when the connection is broken.
  static bool send_some(int fd, std::string* out);

 private:
  using Timer = std::pair<Clock::time_point, std::uint64_t>;
  /// Non-blocking Unix-domain and/or TCP (127.0.0.1) listeners. open()
  /// throws, prefixed with `who`, when one cannot be bound or neither is
  /// configured; close() also unlinks the socket path.
  struct Listeners {
    std::string unix_path;
    int unix_fd = -1;
    int tcp_fd = -1;
    int tcp_port = -1;  // the bound port (a requested port 0 is ephemeral)

    void open(const std::string& unix_socket, int port, const char* who);
    void close();
  };

  void run();
  /// nullptr when the connection has closed.
  Conn* find(std::uint64_t id);
  int wait_ms() const;
  void begin_drain();
  void accept_all(int listen_fd);
  void on_conn(std::uint64_t id, std::uint32_t events);
  void parse(Conn& c);
  /// Re-register the connection's epoll interest, or close it once it
  /// has nothing left to read, answer or write.
  void settle(Conn& c);
  void close_conn(Conn& c);
  void mark(Conn& c);
  void flush();
  void ctl(int op, int fd, std::uint32_t events, std::uint64_t data);

  Handler& handler_;
  Listeners listeners_;
  const Clock::duration drain_grace_;
  int ep_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  Clock::time_point now_ = Clock::now();
  Clock::time_point drain_until_;
  Clock::time_point handler_due_ = Clock::time_point::max();

  std::unordered_map<std::uint64_t, Conn> conns_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::vector<std::uint64_t> dirty_;  // ids of connections with output
  std::uint64_t next_conn_ = 0;
  std::thread thread_;
};

}  // namespace iotax::serve
