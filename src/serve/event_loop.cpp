#include "src/serve/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace iotax::serve {

using util::FrameDecode;
using util::Reason;

void EventLoop::Listeners::open(const std::string& unix_socket, int port,
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

void EventLoop::Listeners::close() {
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

namespace {

/// An epoll event's high byte says what its fd is; the rest is an id.
enum Tag : std::uint64_t { kListener = 1, kConn, kWake, kHandler };
constexpr std::uint64_t kIdMask = (1ULL << 56) - 1;

std::uint64_t tag(Tag t, std::uint64_t id) {
  return static_cast<std::uint64_t>(t) << 56 | id;
}

}  // namespace

EventLoop::EventLoop(Handler& handler, const std::string& unix_socket,
                     int tcp_port, const char* who,
                     Clock::duration drain_grace)
    : handler_(handler), drain_grace_(drain_grace) {
  listeners_.open(unix_socket, tcp_port, who);
  ep_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (ep_ < 0 || wake_fd_ < 0) {
    const std::string err = std::strerror(errno);
    if (ep_ >= 0) ::close(ep_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listeners_.close();
    throw std::runtime_error(std::string(who) + ": event loop setup failed: " +
                             err);
  }
  ctl(EPOLL_CTL_ADD, wake_fd_, EPOLLIN, tag(kWake, 0));
  for (const int fd : {listeners_.unix_fd, listeners_.tcp_fd}) {
    if (fd >= 0) ctl(EPOLL_CTL_ADD, fd, EPOLLIN, tag(kListener, fd));
  }
}

EventLoop::~EventLoop() {
  stop();
  listeners_.close();
  ::close(wake_fd_);
  ::close(ep_);
}

void EventLoop::start() {
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  if (!thread_.joinable()) return;
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  thread_.join();
}

void EventLoop::ctl(int op, int fd, std::uint32_t events, std::uint64_t data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  ::epoll_ctl(ep_, op, fd, &ev);
}

void EventLoop::add(int fd, std::uint32_t events, std::uint64_t token) {
  ctl(EPOLL_CTL_ADD, fd, events, tag(kHandler, token));
}

void EventLoop::modify(int fd, std::uint32_t events, std::uint64_t token) {
  ctl(EPOLL_CTL_MOD, fd, events, tag(kHandler, token));
}

void EventLoop::at(Clock::time_point when, std::uint64_t token) {
  timers_.push({when, token});
}

EventLoop::Conn* EventLoop::find(std::uint64_t id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

void EventLoop::mark(Conn& c) {
  if (c.dirty) return;
  c.dirty = true;
  dirty_.push_back(c.id);
}

void EventLoop::reply(Conn& c, std::string_view bytes) {
  c.out += bytes;
  mark(c);
}

void EventLoop::answer(std::uint64_t id, std::string_view bytes) {
  Conn* c = find(id);
  if (c == nullptr) return;
  --c->pending;
  reply(*c, bytes);
}

bool EventLoop::send_some(int fd, std::string* out) {
  const ssize_t n =
      ::send(fd, out->data(), out->size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  if (n >= 0) out->erase(0, static_cast<std::size_t>(n));
  return n >= 0 || errno == EAGAIN || errno == EINTR;
}

void EventLoop::run() {
  epoll_event events[128];
  while (true) {
    if (!draining_ && stop_requested_.load(std::memory_order_acquire)) {
      begin_drain();
    }
    if (draining_ &&
        (now_ >= drain_until_ ||
         (handler_.drained() &&
          std::all_of(conns_.begin(), conns_.end(),
                      [](const auto& kv) { return kv.second.out.empty(); }))))
      break;
    const int n = ::epoll_wait(ep_, events, 128, wait_ms());
    now_ = Clock::now();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t t = events[i].data.u64;
      const std::uint64_t id = t & kIdMask;
      switch (t >> 56) {
        case kListener:
          accept_all(static_cast<int>(id));
          break;
        case kConn:
          on_conn(id, events[i].events);
          break;
        case kWake: {  // stop(): the top of the loop starts the drain
          std::uint64_t count = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(wake_fd_, &count, sizeof(count));
          break;
        }
        case kHandler:
          handler_.on_io(id, events[i].events);
          break;
      }
    }
    // Timers armed by the handlers below fire on a later pass.
    std::vector<Timer> due;
    while (!timers_.empty() && timers_.top().first <= now_) {
      due.push_back(timers_.top());
      timers_.pop();
    }
    for (const auto& [when, token] : due) handler_.on_timer(token);
    handler_due_ = handler_.on_tick();
    flush();
  }
  // Past the grace, peers that never read lose what they were owed.
  for (const auto& [id, c] : conns_) ::close(c.fd);
  conns_.clear();
}

int EventLoop::wait_ms() const {
  Clock::time_point next = handler_due_;
  if (!timers_.empty()) next = std::min(next, timers_.top().first);
  if (draining_) next = std::min(next, drain_until_);
  if (next == Clock::time_point::max()) return -1;
  return static_cast<int>(std::max<std::chrono::milliseconds::rep>(
      0, std::chrono::ceil<std::chrono::milliseconds>(next - Clock::now())
             .count()));
}

void EventLoop::begin_drain() {
  draining_ = true;
  drain_until_ = now_ + drain_grace_;
  listeners_.close();  // also leaves the epoll set
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, c] : conns_) ids.push_back(id);
  for (const auto id : ids) settle(conns_.at(id));
}

void EventLoop::accept_all(int listen_fd) {
  int fd = -1;
  while ((fd = ::accept4(listen_fd, nullptr, nullptr,
                         SOCK_CLOEXEC | SOCK_NONBLOCK)) >= 0) {
    const std::uint64_t id = ++next_conn_;
    Conn& c = conns_[id];
    c.id = id;
    c.fd = fd;
    ctl(EPOLL_CTL_ADD, fd, 0, tag(kConn, id));
    if (!handler_.on_accept(c)) continue;
    c.reading = true;
    settle(c);
  }
}

void EventLoop::on_conn(std::uint64_t id, std::uint32_t events) {
  Conn* c = find(id);
  if (c == nullptr) return;
  if ((events & EPOLLIN) && c->reading && !c->blocked && !draining_) {
    const ssize_t n = c->in.read_from(c->fd);
    if (n < 0 && errno != EAGAIN) {
      close_conn(*c);
      return;
    }
    if (n == 0) {
      c->reading = false;
      c->eof = true;
    }
    parse(*c);
  } else if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(*c);  // gone both ways: nobody left to answer
    return;
  }
  if (events & EPOLLOUT) mark(*c);
  settle(*c);
}

void EventLoop::parse(Conn& c) {
  while (!c.blocked && !draining_) {
    const FrameDecode& dec = c.in.peek();
    if (dec.status == FrameDecode::Status::kNeedMore) break;
    if (dec.status == FrameDecode::Status::kBad) {
      // Framing is lost: answer the defect, read no further, close once
      // the requests already admitted are answered.
      handler_.on_bad_frame(c, dec.reason, dec.detail, dec.detail);
      c.in.clear();
      c.reading = false;
      c.eof = true;
      return;
    }
    if (!handler_.on_frame(c, dec.header)) {
      c.blocked = true;
      return;
    }
    c.in.pop();
  }
  // EOF with a partial frame buffered: the wire-level analogue of a
  // truncated archive. During drain the loop reads nothing, so an EOF
  // here is always the peer's cut.
  if (c.eof && !c.blocked && !draining_ && c.in.buffered() > 0) {
    handler_.on_bad_frame(c, Reason::kTruncated, "truncated frame",
                          c.in.truncation_detail());
    c.in.clear();
  }
}

void EventLoop::resume(std::uint64_t id) {
  Conn* c = find(id);
  if (c == nullptr || (c->reading && !c->blocked)) return;
  c->blocked = false;
  if (!c->eof) c->reading = true;
  parse(*c);
  settle(*c);
}

void EventLoop::settle(Conn& c) {
  if (c.pending == 0 && c.out.empty() &&
      (draining_ || (c.eof && !c.blocked))) {
    close_conn(c);
    return;
  }
  const bool read =
      c.reading && !c.blocked && !draining_ && c.out.size() < kMaxFrontOut;
  const std::uint32_t events =
      (read ? EPOLLIN : 0u) | (c.out.empty() ? 0u : EPOLLOUT);
  if (c.events == events) return;
  c.events = events;
  ctl(EPOLL_CTL_MOD, c.fd, events, tag(kConn, c.id));
}

void EventLoop::close_conn(Conn& c) {
  const std::uint64_t id = c.id;
  ::close(c.fd);
  conns_.erase(id);
  handler_.on_close(id);
}

void EventLoop::flush() {
  // One send per connection with output: every frame queued during this
  // wake-up leaves in a single write.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    Conn* c = find(dirty_[i]);
    if (c == nullptr) continue;
    c->dirty = false;
    if (!send_some(c->fd, &c->out)) {
      close_conn(*c);
      continue;
    }
    settle(*c);
  }
  dirty_.clear();
}

}  // namespace iotax::serve
