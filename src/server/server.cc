#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/cpu_affinity.h"

namespace aqua {

namespace {

/// Inline responses buffered past this many bytes are sent before the next
/// request is served, which bounds a connection's output buffer to this
/// plus one response.
constexpr std::size_t kMaxBufferedOutput = 64 * 1024;

void AppendResponse(const HttpResponse& response, std::string* out) {
  response.SerializeHeadInto(out);
  out->append(response.body);
}

void Count(std::atomic<std::int64_t>& counter, std::int64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

/// Nonblocking vectored send used by worker threads: sends what the
/// socket accepts right now and appends any unsent remainder to *tail for
/// the owning reactor to finish, so a worker never blocks on a slow
/// reader.  Returns false when the connection is dead.
bool SendNonblock(int fd, std::string_view head, std::string_view body,
                  std::string* tail) {
  std::size_t written = 0;
  for (;;) {
    const std::string_view head_left =
        head.substr(std::min(written, head.size()));
    const std::string_view body_left =
        body.substr(written - (head.size() - head_left.size()));
    if (head_left.empty() && body_left.empty()) return true;
    iovec iov[2] = {{const_cast<char*>(head_left.data()), head_left.size()},
                    {const_cast<char*>(body_left.data()), body_left.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      tail->append(head_left);
      tail->append(body_left);
      return true;
    }
    return false;
  }
}

}  // namespace

HttpServer::HttpServer(const HttpServerOptions& options) : options_(options) {
  if (options_.reactors < 1) options_.reactors = 1;
  if (options_.workers < 1) options_.workers = 1;
  limits_.max_header_bytes = options_.max_header_bytes;
  limits_.max_body_bytes = options_.max_body_bytes;
  queue_ring_.resize(options_.queue_capacity);
}

HttpServer::~HttpServer() {
  if (started_.load()) Shutdown();
}

void HttpServer::Route(std::string method, std::string path, Handler handler,
                       RouteOptions route_options) {
  AddRoute(&routes_, std::move(method), std::move(path), std::move(handler),
           std::move(route_options));
}

void HttpServer::RoutePrefix(std::string method, std::string prefix,
                             Handler handler, RouteOptions route_options) {
  AddRoute(&prefix_routes_, std::move(method), std::move(prefix),
           std::move(handler), std::move(route_options));
}

void HttpServer::AddRoute(std::vector<RouteEntry>* table, std::string method,
                          std::string path, Handler handler,
                          RouteOptions route_options) {
  RouteEntry entry;
  entry.run_inline = route_options.dispatch == RouteOptions::Dispatch::kAuto &&
                     method == "GET";
  entry.method = std::move(method);
  entry.path = std::move(path);
  entry.handler = std::move(handler);
  entry.cacheable_if = std::move(route_options.cacheable_if);
  entry.canonical_key = std::move(route_options.canonical_key);
  entry.scoped_epoch = std::move(route_options.scoped_epoch);
  table->push_back(std::move(entry));
}

Status HttpServer::StartListener(Reactor& reactor) {
  reactor.listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (reactor.listen_fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  ::setsockopt(reactor.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  // Every reactor binds the same port; the kernel load-balances incoming
  // connections across the listeners by flow hash.
  if (::setsockopt(reactor.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                   sizeof(one)) < 0) {
    return Status::Internal(std::string("setsockopt(SO_REUSEPORT): ") +
                            strerror(errno));
  }
  if (options_.sndbuf > 0) {
    // Accepted sockets inherit the listener's SO_SNDBUF; the slow-reader
    // tests shrink it to force partial writes.
    ::setsockopt(reactor.listen_fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf,
                 sizeof(options_.sndbuf));
  }

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  // The first listener resolves an ephemeral options_.port == 0; the rest
  // join the port it got.
  addr.sin_port = htons(port_ != 0 ? port_ : options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(reactor.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::Internal(std::string("bind: ") + strerror(errno));
  }
  if (::listen(reactor.listen_fd, 256) < 0) {
    return Status::Internal(std::string("listen: ") + strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(reactor.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &len) < 0) {
    return Status::Internal(std::string("getsockname: ") + strerror(errno));
  }
  port_ = ntohs(addr.sin_port);

  reactor.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (reactor.event_fd < 0) {
    return Status::Internal("eventfd failed");
  }

  // The listener's and the wake fd's events carry the address of the
  // reactor's field holding the fd; a connection's carry the Connection*.
  Count(reactor.syscalls);
  reactor.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (reactor.epoll_fd < 0) {
    return Status::Internal(std::string("epoll_create1: ") + strerror(errno));
  }
  for (int* fd : {&reactor.listen_fd, &reactor.event_fd}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = fd;
    Count(reactor.syscalls);
    if (::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_ADD, *fd, &ev) != 0) {
      return Status::Internal(std::string("epoll_ctl: ") + strerror(errno));
    }
  }
  return Status::OK();
}

Status HttpServer::Start() {
  reactors_.reserve(static_cast<std::size_t>(options_.reactors));
  for (int i = 0; i < options_.reactors; ++i) {
    auto reactor = std::make_unique<Reactor>(options_.cache);
    reactor->index = static_cast<std::size_t>(i);
    Status status = StartListener(*reactor);
    if (!status.ok()) return status;
    reactors_.push_back(std::move(reactor));
  }

  started_.store(true);
  for (auto& reactor : reactors_) {
    Reactor* r = reactor.get();
    r->thread = std::thread([this, r] { IoLoop(*r); });
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    // The worker's render scratch is built here, so its one allocation
    // happens before Start() returns rather than whenever the thread
    // first runs.
    workers_.emplace_back([this, response = HttpResponse()]() mutable {
      WorkerLoop(std::move(response));
    });
  }
  return Status::OK();
}

void HttpServer::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    Wait();
    return;
  }
  // Wake every reactor; each begins its drain.
  const std::uint64_t one = 1;
  for (auto& reactor : reactors_) {
    [[maybe_unused]] ssize_t n =
        ::write(reactor->event_fd, &one, sizeof(one));
  }
  for (auto& reactor : reactors_) {
    if (reactor->thread.joinable()) reactor->thread.join();
  }
  // Normally the reactors close the queue as they drain; do it here too so
  // a reactor that died early cannot strand the workers.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_done_ = true;
  }
  shutdown_cv_.notify_all();
  for (auto& reactor : reactors_) {
    for (int* fd :
         {&reactor->listen_fd, &reactor->event_fd, &reactor->epoll_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }
}

void HttpServer::Wait() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_done_; });
}

HttpServer::ServerStats HttpServer::Stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses_503 = responses_503_.load(std::memory_order_relaxed);
  stats.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  stats.reactors = reactors_.size();
  for (const auto& reactor : reactors_) {
    const ResponseCache::Stats cache = reactor->cache.GetStats();
    stats.cache_hits += cache.hits;
    stats.cache_misses += cache.misses;
    stats.cache_bypass += cache.bypass;
    stats.cache_invalidations += cache.invalidations;
    stats.cache_stale_evictions += cache.stale_evictions;
    if (reactor->pinned_cpu.load(std::memory_order_relaxed) >= 0) {
      ++stats.reactors_pinned;
    }
    constexpr auto kRelaxed = std::memory_order_relaxed;
    stats.io.syscalls += reactor->syscalls.load(kRelaxed);
    stats.io.direct_sends += reactor->direct_sends.load(kRelaxed);
    stats.io.coalesced_responses +=
        reactor->coalesced_responses.load(kRelaxed);
    stats.io.copied_sends += reactor->copied_sends.load(kRelaxed);
    stats.io.copied_bytes += reactor->copied_bytes.load(kRelaxed);
    stats.io.bytes_sent += reactor->bytes_sent.load(kRelaxed);
    stats.io.bytes_received += reactor->bytes_received.load(kRelaxed);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.queue_depth = queue_size_;
  }
  return stats;
}

void HttpServer::IoLoop(Reactor& reactor) {
  if (options_.pin_reactors) {
    reactor.pinned_cpu.store(PinSelfToCpu(reactor.index),
                             std::memory_order_relaxed);
  }
  bool draining = false;
  int drain_spins = 0;
  epoll_event events[128];
  for (;;) {
    Count(reactor.syscalls);
    const int n = ::epoll_wait(reactor.epoll_fd, events, 128, 100);
    if (n < 0 && errno != EINTR) {
      std::fprintf(stderr, "aqua: reactor %zu epoll_wait failed: %s\n",
                   reactor.index, strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      void* ptr = events[i].data.ptr;
      const std::uint32_t ready = events[i].events;
      if (ptr == &reactor.listen_fd) {
        Accept(reactor);
        continue;
      }
      if (ptr == &reactor.event_fd) {
        // Worker rearms or shutdown: both are handled after the batch.
        std::uint64_t value = 0;
        Count(reactor.syscalls);
        [[maybe_unused]] const ssize_t r =
            ::read(reactor.event_fd, &value, sizeof(value));
        continue;
      }
      auto* conn = static_cast<Connection*>(ptr);
      if (conn->fd < 0) continue;  // closed earlier in this batch
      if (!conn->parked.empty()) {
        // While a tail is parked the mask is EPOLLOUT-only; errors and
        // hangups surface as a write failure inside the flush.
        if (ready & (EPOLLOUT | EPOLLERR | EPOLLHUP)) {
          FlushParked(reactor, conn);
        }
      } else if (conn->recv_on &&
                 (ready & (EPOLLIN | EPOLLERR | EPOLLHUP))) {
        ReadReady(reactor, conn);
      }
    }
    // Deferred free: no event left in this batch can carry the pointer of
    // a connection it closed.
    for (Connection* conn : reactor.closed) delete conn;
    reactor.closed.clear();

    ProcessRearms(reactor);
    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      Count(reactor.syscalls);
      ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_DEL, reactor.listen_fd,
                  nullptr);
    }
    // in_flight_ and the queue are global: every reactor waits for the
    // whole server to drain so no reactor exits while a worker still owes
    // one of its connections a rearm.
    if (draining && in_flight_.load(std::memory_order_acquire) == 0) {
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_empty = queue_size_ == 0;
        if (queue_empty) queue_closed_ = true;
      }
      if (queue_empty) {
        queue_cv_.notify_all();
        // Give parked tails a bounded grace period (~5s of poll ticks) to
        // reach their slow readers before cutting them off.
        const bool parked = std::any_of(
            reactor.connections.begin(), reactor.connections.end(),
            [](const Connection* conn) { return !conn->parked.empty(); });
        if (!parked || ++drain_spins >= 50) break;
      }
    }
  }
  // Close whatever is still open (idle keep-alive connections).
  while (!reactor.connections.empty()) {
    CloseConnection(reactor, *reactor.connections.begin());
  }
  for (Connection* conn : reactor.closed) delete conn;
  reactor.closed.clear();
}

void HttpServer::Accept(Reactor& reactor) {
  for (;;) {
    Count(reactor.syscalls);
    const int fd = ::accept4(reactor.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure; next event retries
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto* conn = new Connection(fd, limits_, &reactor);
    if (!SyncMask(reactor, conn)) {
      ::close(fd);
      delete conn;
      continue;
    }
    reactor.connections.insert(conn);
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void HttpServer::ReadReady(Reactor& reactor, Connection* conn) {
  char buf[16384];
  for (;;) {
    Count(reactor.syscalls);
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      Count(reactor.bytes_received, n);
      // The parser copies the bytes into its own buffer.
      if (conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n))) !=
              HttpRequestParser::State::kNeedMore &&
          !DrainParsed(reactor, conn)) {
        return;  // closed, handed to a worker, or parked
      }
      // Level-triggered epoll re-fires if more bytes are queued, so a
      // short read ends the loop without paying an extra EAGAIN read.
      if (n < static_cast<ssize_t>(sizeof(buf))) return;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConnection(reactor, conn);  // orderly EOF or a receive error
    return;
  }
}

void HttpServer::FlushParked(Reactor& reactor, Connection* conn) {
  while (conn->parked_sent < conn->parked.size()) {
    Count(reactor.syscalls);
    const ssize_t n =
        ::send(conn->fd, conn->parked.data() + conn->parked_sent,
               conn->parked.size() - conn->parked_sent, MSG_NOSIGNAL);
    if (n > 0) {
      Count(reactor.bytes_sent, n);
      conn->parked_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConnection(reactor, conn);
    return;
  }
  conn->parked.clear();
  conn->parked_sent = 0;
  SyncMask(reactor, conn);  // EPOLLOUT off; receive is still suspended
  if (conn->close_after_send || stopping_.load(std::memory_order_acquire)) {
    CloseConnection(reactor, conn);
    return;
  }
  // Serve any pipelined requests buffered while the tail was parked; only
  // then re-open the receive path.
  if (DrainParsed(reactor, conn)) SetRecv(reactor, conn, true);
}

bool HttpServer::SyncMask(Reactor& reactor, Connection* conn) {
  const std::uint32_t mask = (conn->recv_on ? EPOLLIN : 0u) |
                             (conn->parked.empty() ? 0u : EPOLLOUT);
  if (mask == 0) {
    if (conn->registered) {
      Count(reactor.syscalls);
      ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
      conn->registered = false;
    }
    return true;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.ptr = conn;
  Count(reactor.syscalls);
  if (::epoll_ctl(reactor.epoll_fd,
                  conn->registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, conn->fd,
                  &ev) != 0) {
    return false;
  }
  conn->registered = true;
  return true;
}

void HttpServer::SetRecv(Reactor& reactor, Connection* conn, bool on) {
  if (conn->recv_on == on) return;
  conn->recv_on = on;
  SyncMask(reactor, conn);
}

bool HttpServer::DrainParsed(Reactor& reactor, Connection* conn) {
  for (;;) {
    const auto state = conn->parser.Reparse();
    if (state == HttpRequestParser::State::kNeedMore) {
      // No complete request left: every response this read produced goes
      // out in one write.
      return FinishSend(reactor, conn, /*keep_alive=*/true);
    }
    if (state == HttpRequestParser::State::kError) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      SendControl(reactor, conn, 400,
                  "{\"error\":\"" + conn->parser.error() + "\"}");
      return false;
    }
    if (!HandleParsedRequest(reactor, conn)) return false;
  }
}

void HttpServer::FindRoute(std::string_view method, std::string_view path,
                           const RouteEntry** route, bool* path_known) const {
  *route = nullptr;
  *path_known = false;
  for (const RouteEntry& entry : routes_) {
    if (entry.path == path) {
      *path_known = true;
      if (entry.method == method) {
        *route = &entry;
        return;
      }
    }
  }
  // Exact routes miss: longest matching prefix wins.
  std::size_t best_len = 0;
  for (const RouteEntry& entry : prefix_routes_) {
    if (!path.starts_with(entry.path)) continue;
    *path_known = true;
    if (entry.method == method && entry.path.size() >= best_len) {
      best_len = entry.path.size();
      *route = &entry;
    }
  }
}

bool HttpServer::HandleParsedRequest(Reactor& reactor, Connection* conn) {
  const RouteEntry* route = nullptr;
  bool path_known = false;
  {
    const HttpRequest& next = conn->parser.PeekRequest();
    FindRoute(next.method, next.path, &route, &path_known);
  }

  // Read path (and 404/405): run to completion on this reactor — no queue
  // hop, no shedding (inline work is bounded by the synopsis, not the
  // base data).
  if (route == nullptr || route->run_inline) {
    const HttpRequest request = conn->parser.TakeRequest();
    return ServeInline(reactor, conn, route, path_known, request);
  }

  // Mutating route.  The worker writes its response straight to the
  // socket, so the responses buffered ahead of it go first; if they park,
  // the request stays in the parser and FlushParked() dispatches it.
  if (!FinishSend(reactor, conn, /*keep_alive=*/true)) return false;

  // Hand the connection to the worker pool, or shed.  The request stays
  // in the connection; the parser storage its views point into stays
  // untouched (receive is suspended) until the worker pushes its rearm.
  SetRecv(reactor, conn, false);
  conn->request = conn->parser.TakeRequest();
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_closed_ || queue_size_ == queue_ring_.size()) {
      shed = true;
    } else {
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      // Count before the push: once a worker can see the item it may
      // write the response, and stats read after a received response
      // must already include it.
      requests_.fetch_add(1, std::memory_order_relaxed);
      queue_ring_[(queue_head_ + queue_size_) % queue_ring_.size()] = {conn,
                                                                        route};
      ++queue_size_;
    }
  }
  if (shed) {
    responses_503_.fetch_add(1, std::memory_order_relaxed);
    SendControl(reactor, conn, 503,
                "{\"error\":\"request queue full; retry with backoff\"}");
    return false;
  }
  queue_cv_.notify_one();
  return false;  // connection now owned by the worker until rearmed
}

bool HttpServer::FinishSend(Reactor& reactor, Connection* conn,
                            bool keep_alive) {
  if (conn->out_responses > 1) {
    Count(reactor.coalesced_responses, conn->out_responses - 1);
  }
  std::string_view unsent = conn->out;
  while (!unsent.empty()) {
    Count(reactor.syscalls);
    const ssize_t n =
        ::send(conn->fd, unsent.data(), unsent.size(), MSG_NOSIGNAL);
    if (n > 0) {
      Count(reactor.bytes_sent, n);
      unsent.remove_prefix(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(reactor, conn);
    return false;
  }
  const bool park = !unsent.empty();
  if (park) {
    // Backpressure: the tail waits for EPOLLOUT and no new request is read
    // meanwhile, so neither the parser nor the buffer grows behind a
    // reader that never drains.
    conn->parked.assign(unsent);
    Count(reactor.copied_sends);
    Count(reactor.copied_bytes, static_cast<std::int64_t>(unsent.size()));
    conn->close_after_send = !keep_alive;
    conn->recv_on = false;
    SyncMask(reactor, conn);
  } else if (!conn->out.empty()) {
    Count(reactor.direct_sends);
  }
  conn->out.clear();
  conn->out_responses = 0;
  if (park) return false;
  if (!keep_alive) {
    CloseConnection(reactor, conn);
    return false;
  }
  return true;
}

bool HttpServer::ServeInline(Reactor& reactor, Connection* conn,
                             const RouteEntry* route, bool path_known,
                             const HttpRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);

  bool cacheable = route != nullptr && route->scoped_epoch != nullptr &&
                   (!route->cacheable_if || route->cacheable_if(request));
  if (cacheable && request.NoCache()) {
    reactor.cache.CountBypass();
    cacheable = false;
  }
  // The owning scope and its epoch: the entry is cached under that scope's
  // own epoch, so advances elsewhere never touch it.
  std::string_view scope;
  std::uint64_t epoch = 0;
  std::string_view key;
  if (cacheable) {
    const std::optional<RouteOptions::ScopedEpoch> se =
        route->scoped_epoch(request);
    if (se.has_value()) {
      scope = se->scope;
      epoch = se->epoch;
    } else {
      // Epoch unsettled (a snapshot cache is stale): the handler must run
      // so the refresh happens and the epoch advances.
      reactor.cache.CountMiss();
      cacheable = false;
    }
  }
  if (cacheable && route->canonical_key) {
    // The canonical key replaces the raw query string, so every spelling
    // of one query shares one entry; an unparseable request serves
    // uncached (the handler's 400 would never be stored anyway).
    cacheable = reactor.cache.BuildKeyWith(request, route->canonical_key,
                                           &key);
  } else if (cacheable) {
    key = reactor.cache.BuildKey(request);
  }
  bool keep_alive = request.keep_alive;
  const std::string* hit =
      cacheable ? reactor.cache.Lookup(scope, epoch, key) : nullptr;
  if (hit != nullptr) {
    // Hit: replay the stored bytes verbatim — no handler, no snapshot
    // pin, no allocation.
    conn->out.append(*hit);
  } else {
    // Render into the reactor's scratch response, which keeps its
    // capacity across requests, so the warmed cold path never allocates.
    HttpResponse& response = reactor.response_scratch;
    response.Reset();
    if (route != nullptr) {
      route->handler(request, &response);
    } else {
      response.status_code = path_known ? 405 : 404;
      response.body = path_known ? "{\"error\":\"method not allowed\"}"
                                 : "{\"error\":\"no such endpoint\"}";
    }
    response.keep_alive = response.keep_alive && request.keep_alive;
    keep_alive = response.keep_alive;
    const std::size_t start = conn->out.size();
    AppendResponse(response, &conn->out);

    if (cacheable && response.status_code == 200 &&
        response.keep_alive == request.keep_alive) {
      // Store only when the epoch did not move while the handler ran:
      // equal bracketing reads of the scope's monotonic serving epoch
      // prove every snapshot the handler saw belonged to that epoch, so
      // the bytes are valid for the whole epoch (byte-identical replay).
      // Copying the wire out of the buffer is the one deliberate
      // allocation on this path, paid once per (scope, epoch, key),
      // amortized across every later hit.
      const std::optional<RouteOptions::ScopedEpoch> epoch_after =
          route->scoped_epoch(request);
      if (epoch_after.has_value() && epoch_after->scope == scope &&
          epoch_after->epoch == epoch) {
        reactor.cache.Store(scope, epoch, key, conn->out.substr(start));
      }
    }
  }
  ++conn->out_responses;

  // Send early when the connection closes after this response, or when
  // the buffer reaches its cap; otherwise the next request's response
  // joins this one.
  if (!keep_alive || conn->out.size() >= kMaxBufferedOutput) {
    return FinishSend(reactor, conn, keep_alive);
  }
  return true;
}

void HttpServer::ProcessRearms(Reactor& reactor) {
  {
    std::lock_guard<std::mutex> lock(reactor.rearm_mutex);
    // Only a nonempty batch swaps, so successive batches land in the two
    // vectors in turn and both reach capacity within two handoffs.
    if (reactor.rearms.empty()) return;
    reactor.rearms_draining.swap(reactor.rearms);
  }
  for (const RearmItem& item : reactor.rearms_draining) {
    Connection* conn = item.conn;
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    // Finish the tail the worker's write left (delivered even when
    // draining), then serve the pipelined requests already buffered
    // without a read (which may bounce the connection straight back to
    // the worker pool) and re-arm receive.
    const bool keep_alive =
        !item.close && !stopping_.load(std::memory_order_acquire);
    if (FinishSend(reactor, conn, keep_alive) && DrainParsed(reactor, conn)) {
      SetRecv(reactor, conn, true);
    }
  }
  reactor.rearms_draining.clear();
}

void HttpServer::CloseConnection(Reactor& reactor, Connection* conn) {
  if (conn->registered) {
    Count(reactor.syscalls);
    ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    conn->registered = false;
  }
  Count(reactor.syscalls);
  ::close(conn->fd);
  conn->fd = -1;
  reactor.connections.erase(conn);
  // Freed by IoLoop once the current epoll_wait batch is dispatched.
  reactor.closed.push_back(conn);
}

void HttpServer::SendControl(Reactor& reactor, Connection* conn,
                             int status_code, std::string body) {
  HttpResponse response;
  response.status_code = status_code;
  response.keep_alive = false;
  response.body = std::move(body);
  AppendResponse(response, &conn->out);
  ++conn->out_responses;
  // Control responses (400/503) always close, drained or failed alike.
  FinishSend(reactor, conn, /*keep_alive=*/false);
}

void HttpServer::WorkerLoop(HttpResponse response) {
  std::string head;
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return queue_closed_ || queue_size_ > 0; });
      if (queue_size_ == 0) return;  // closed and drained
      item = queue_ring_[queue_head_];
      queue_head_ = (queue_head_ + 1) % queue_ring_.size();
      --queue_size_;
    }

    const HttpRequest& request = item.conn->request;
    response.Reset();
    item.route->handler(request, &response);
    response.keep_alive = response.keep_alive && request.keep_alive;

    head.clear();
    response.SerializeHeadInto(&head);
    // Send what the socket takes right now; an unsent tail waits in the
    // connection's output buffer for the owning reactor to finish.
    Connection* conn = item.conn;
    const bool sent = SendNonblock(conn->fd, head, response.body, &conn->out);
    if (!conn->out.empty()) conn->out_responses = 1;

    // Hand the connection back to its owning reactor for re-arming.
    Reactor* owner = conn->owner;
    {
      std::lock_guard<std::mutex> lock(owner->rearm_mutex);
      owner->rearms.push_back({conn, !sent || !response.keep_alive});
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(owner->event_fd, &one, sizeof(one));
  }
}

}  // namespace aqua
