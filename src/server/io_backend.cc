// Level-triggered epoll with nonblocking read/writev performed by the
// backend at readiness time.  Never blocks outside epoll_wait: a short
// write parks the unsent tail on the connection and arms EPOLLOUT.
#include "server/io_backend.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace aqua {

struct IoBackend::Conn {
  int fd = -1;
  void* token = nullptr;
  bool recv_on = false;
  bool send_pending = false;
  bool registered = false;
  bool closed = false;
  // Parked send tail: `park_data/park_len` point either into *pin (cache
  // entry kept alive with no copy) or into `owned` (copied volatile
  // scratch).
  std::shared_ptr<const std::string> pin;
  std::string owned;
  const char* park_data = nullptr;
  std::size_t park_len = 0;
};

IoBackend::~IoBackend() { Shutdown(); }

Status IoBackend::Init(int listen_fd, int wake_fd, Events* events) {
  listen_fd_ = listen_fd;
  wake_fd_ = wake_fd;
  events_ = events;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  CountSyscall();
  if (epoll_fd_ < 0) {
    return Status::Internal("epoll_create1 failed: " +
                            std::string(::strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &listen_tag_;
  CountSyscall();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::Internal("epoll_ctl(listener) failed: " +
                            std::string(::strerror(errno)));
  }
  ev.events = EPOLLIN;
  ev.data.ptr = &wake_tag_;
  CountSyscall();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::Internal("epoll_ctl(wake fd) failed: " +
                            std::string(::strerror(errno)));
  }
  return Status::OK();
}

Status IoBackend::Poll(int timeout_ms) {
  ReapClosed();
  epoll_event events[128];
  CountSyscall();
  const int n = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::Internal("epoll_wait failed: " +
                            std::string(::strerror(errno)));
  }
  for (int i = 0; i < n; ++i) {
    void* ptr = events[i].data.ptr;
    if (ptr == &listen_tag_) {
      HandleAccept();
      continue;
    }
    if (ptr == &wake_tag_) {
      HandleWake();
      continue;
    }
    auto* conn = static_cast<Conn*>(ptr);
    if (conn->closed) continue;
    if (conn->send_pending) {
      // While a send is parked the mask is EPOLLOUT-only; errors and
      // hangups surface as a write failure inside the flush.
      if (events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) {
        FlushParked(conn);
      }
      continue;
    }
    if (conn->recv_on && (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP))) {
      HandleReadable(conn);
    }
  }
  ReapClosed();
  return Status::OK();
}

void* IoBackend::Add(int fd, void* token) {
  auto* conn = new Conn();
  conn->fd = fd;
  conn->token = token;
  conn->recv_on = true;
  if (!SyncMask(conn)) {
    delete conn;
    return nullptr;
  }
  return conn;
}

void IoBackend::SuspendRecv(void* handle) {
  auto* conn = static_cast<Conn*>(handle);
  if (!conn->recv_on) return;
  conn->recv_on = false;
  SyncMask(conn);
}

void IoBackend::ResumeRecv(void* handle) {
  auto* conn = static_cast<Conn*>(handle);
  if (conn->recv_on) return;
  conn->recv_on = true;
  SyncMask(conn);
}

IoBackend::SendResult IoBackend::Send(
    void* handle, std::string_view head, std::string_view body,
    const std::shared_ptr<const std::string>* pin) {
  auto* conn = static_cast<Conn*>(handle);
  const std::size_t total = head.size() + body.size();
  std::size_t written = 0;
  while (written < total) {
    iovec iov[2];
    int iovcnt = 0;
    if (written < head.size()) {
      iov[iovcnt].iov_base = const_cast<char*>(head.data()) + written;
      iov[iovcnt].iov_len = head.size() - written;
      ++iovcnt;
    }
    const std::size_t body_done =
        written > head.size() ? written - head.size() : 0;
    if (body_done < body.size()) {
      iov[iovcnt].iov_base = const_cast<char*>(body.data()) + body_done;
      iov[iovcnt].iov_len = body.size() - body_done;
      ++iovcnt;
    }
    CountSyscall();
    const ssize_t n = ::writev(conn->fd, iov, iovcnt);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      bytes_sent_.fetch_add(n, std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ParkTail(conn, head, body, written, pin);
      return SendResult::kPending;
    }
    return SendResult::kError;
  }
  zero_copy_sends_.fetch_add(1, std::memory_order_relaxed);
  return SendResult::kDone;
}

bool IoBackend::HasPendingSend(const void* handle) const {
  return static_cast<const Conn*>(handle)->send_pending;
}

void IoBackend::StopAccepting() {
  if (!accepting_) return;
  accepting_ = false;
  CountSyscall();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
}

void IoBackend::Close(void* handle) {
  auto* conn = static_cast<Conn*>(handle);
  if (conn->closed) return;
  if (conn->registered) {
    CountSyscall();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    conn->registered = false;
  }
  CountSyscall();
  ::close(conn->fd);
  conn->fd = -1;
  conn->closed = true;
  conn->pin.reset();
  // Deferred free: a later event in the current epoll_wait batch may
  // still carry this pointer; Poll() skips closed conns and frees them
  // once the batch is fully dispatched.
  closed_.push_back(conn);
}

void IoBackend::Shutdown() {
  ReapClosed();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

IoBackend::Stats IoBackend::GetStats() const {
  Stats s;
  s.syscalls = syscalls_.load(std::memory_order_relaxed);
  s.zero_copy_sends = zero_copy_sends_.load(std::memory_order_relaxed);
  s.copied_sends = copied_sends_.load(std::memory_order_relaxed);
  s.copied_bytes = copied_bytes_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  return s;
}

// Brings the epoll registration in line with (recv_on, send_pending).
// A connection with neither (worker handoff) is deregistered entirely so
// level-triggered hangups cannot spin the reactor while a worker owns it.
bool IoBackend::SyncMask(Conn* conn) {
  const uint32_t mask = (conn->recv_on ? EPOLLIN : 0u) |
                        (conn->send_pending ? EPOLLOUT : 0u);
  if (mask == 0) {
    if (conn->registered) {
      CountSyscall();
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
      conn->registered = false;
    }
    return true;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.ptr = conn;
  const int op = conn->registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  CountSyscall();
  if (::epoll_ctl(epoll_fd_, op, conn->fd, &ev) != 0) return false;
  conn->registered = true;
  return true;
}

void IoBackend::HandleAccept() {
  if (!accepting_) return;
  for (;;) {
    CountSyscall();
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure; next event retries
    }
    events_->OnAccept(fd);
  }
}

void IoBackend::HandleWake() {
  uint64_t value = 0;
  CountSyscall();
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &value, sizeof(value));
  events_->OnWake();
}

void IoBackend::HandleReadable(Conn* conn) {
  char buf[16384];
  for (;;) {
    CountSyscall();
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_received_.fetch_add(n, std::memory_order_relaxed);
      if (!events_->OnRecv(conn->token,
                           std::string_view(buf, static_cast<size_t>(n)))) {
        return;  // core closed / suspended / parked — conn may be gone
      }
      if (conn->closed || !conn->recv_on) return;
      // Level-triggered epoll re-fires if more bytes are queued, so a
      // short read ends the loop without paying an extra EAGAIN read.
      if (n < static_cast<ssize_t>(sizeof(buf))) return;
      continue;
    }
    if (n == 0) {
      events_->OnRecvClosed(conn->token);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    events_->OnRecvClosed(conn->token);
    return;
  }
}

void IoBackend::ParkTail(Conn* conn, std::string_view head,
                         std::string_view body, std::size_t written,
                         const std::shared_ptr<const std::string>* pin) {
  const std::size_t remaining = head.size() + body.size() - written;
  // A pinned buffer can be parked in place (the shared_ptr keeps the
  // cache entry alive, even across an epoch flush) as long as head and
  // body are one contiguous span inside it — true for the cached wire
  // path, which passes the whole entry as `head`.
  if (pin != nullptr && *pin != nullptr &&
      (body.empty() || head.data() + head.size() == body.data())) {
    conn->pin = *pin;
    conn->park_data = head.data() + written;
    conn->park_len = remaining;
    zero_copy_sends_.fetch_add(1, std::memory_order_relaxed);
  } else {
    conn->owned.clear();
    if (written < head.size()) conn->owned.append(head.substr(written));
    const std::size_t body_done =
        written > head.size() ? written - head.size() : 0;
    if (body_done < body.size()) conn->owned.append(body.substr(body_done));
    conn->park_data = conn->owned.data();
    conn->park_len = conn->owned.size();
    copied_sends_.fetch_add(1, std::memory_order_relaxed);
    copied_bytes_.fetch_add(static_cast<std::int64_t>(remaining),
                            std::memory_order_relaxed);
  }
  conn->send_pending = true;
  SyncMask(conn);
}

void IoBackend::FlushParked(Conn* conn) {
  while (conn->park_len > 0) {
    CountSyscall();
    const ssize_t n = ::write(conn->fd, conn->park_data, conn->park_len);
    if (n > 0) {
      bytes_sent_.fetch_add(n, std::memory_order_relaxed);
      conn->park_data += n;
      conn->park_len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn->send_pending = false;
    conn->pin.reset();
    conn->park_data = nullptr;
    conn->park_len = 0;
    events_->OnSendError(conn->token);
    return;
  }
  conn->send_pending = false;
  conn->pin.reset();
  conn->owned.clear();
  conn->park_data = nullptr;
  SyncMask(conn);
  events_->OnSendDrained(conn->token);
}

void IoBackend::ReapClosed() {
  for (Conn* conn : closed_) delete conn;
  closed_.clear();
}

}  // namespace aqua
