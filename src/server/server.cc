#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "common/cpu_affinity.h"

namespace aqua {

namespace {

enum class WriteNow { kDone, kTail, kError };

/// Nonblocking vectored write used by worker threads: sends what the
/// socket accepts right now and collects any unsent remainder into *tail
/// for the owning reactor's backend to finish — the worker never blocks on
/// a slow reader (the old WritevAll poll() loop is gone).
WriteNow WritevNonblock(int fd, std::string_view head, std::string_view body,
                        std::string* tail) {
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
    const ssize_t n = ::writev(fd, iov, iovcnt);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      tail->clear();
      if (written < head.size()) tail->append(head.substr(written));
      const std::size_t body_done2 =
          written > head.size() ? written - head.size() : 0;
      if (body_done2 < body.size()) tail->append(body.substr(body_done2));
      return WriteNow::kTail;
    }
    return WriteNow::kError;
  }
  return WriteNow::kDone;
}

}  // namespace

HttpServer::HttpServer(const HttpServerOptions& options) : options_(options) {
  if (options_.reactors < 1) options_.reactors = 1;
  if (options_.workers < 1) options_.workers = 1;
  limits_.max_header_bytes = options_.max_header_bytes;
  limits_.max_body_bytes = options_.max_body_bytes;
}

HttpServer::~HttpServer() {
  if (started_.load()) Shutdown();
}

void HttpServer::Route(std::string method, std::string path, Handler handler,
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
  routes_.push_back(std::move(entry));
}

void HttpServer::RoutePrefix(std::string method, std::string prefix,
                             Handler handler, RouteOptions route_options) {
  RouteEntry entry;
  entry.run_inline = route_options.dispatch == RouteOptions::Dispatch::kAuto &&
                     method == "GET";
  entry.method = std::move(method);
  entry.path = std::move(prefix);
  entry.handler = std::move(handler);
  entry.cacheable_if = std::move(route_options.cacheable_if);
  entry.canonical_key = std::move(route_options.canonical_key);
  entry.scoped_epoch = std::move(route_options.scoped_epoch);
  prefix_routes_.push_back(std::move(entry));
}

void HttpServer::Route(std::string method, std::string path,
                       SimpleHandler handler, RouteOptions route_options) {
  Route(std::move(method), std::move(path),
        [h = std::move(handler)](const HttpRequest& request,
                                 HttpResponse* response) {
          *response = h(request);
        },
        std::move(route_options));
}

void HttpServer::RoutePrefix(std::string method, std::string prefix,
                             SimpleHandler handler,
                             RouteOptions route_options) {
  RoutePrefix(std::move(method), std::move(prefix),
              [h = std::move(handler)](const HttpRequest& request,
                                       HttpResponse* response) {
                *response = h(request);
              },
              std::move(route_options));
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
  return Status::OK();
}

Status HttpServer::Start() {
  reactors_.reserve(static_cast<std::size_t>(options_.reactors));
  for (int i = 0; i < options_.reactors; ++i) {
    auto reactor = std::make_unique<Reactor>(options_.cache);
    reactor->server = this;
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
    workers_.emplace_back([this] { WorkerLoop(); });
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
    if (reactor->listen_fd >= 0) ::close(reactor->listen_fd);
    if (reactor->event_fd >= 0) ::close(reactor->event_fd);
    reactor->listen_fd = reactor->event_fd = -1;
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
    const IoBackend::Stats io = reactor->backend.GetStats();
    stats.io.syscalls += io.syscalls;
    stats.io.zero_copy_sends += io.zero_copy_sends;
    stats.io.copied_sends += io.copied_sends;
    stats.io.copied_bytes += io.copied_bytes;
    stats.io.bytes_sent += io.bytes_sent;
    stats.io.bytes_received += io.bytes_received;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.queue_depth = queue_.size();
  }
  return stats;
}

void HttpServer::IoLoop(Reactor& reactor) {
  if (options_.pin_reactors) {
    reactor.pinned_cpu.store(PinSelfToCpu(reactor.index),
                             std::memory_order_relaxed);
  }
  const Status init =
      reactor.backend.Init(reactor.listen_fd, reactor.event_fd, &reactor);
  if (!init.ok()) {
    std::fprintf(stderr, "aqua: reactor %zu failed to start: %s\n",
                 reactor.index, init.message().c_str());
    return;
  }

  bool draining = false;
  int drain_spins = 0;
  for (;;) {
    const Status status = reactor.backend.Poll(100);
    if (!status.ok()) {
      std::fprintf(stderr, "aqua: reactor %zu poll failed: %s\n",
                   reactor.index, status.message().c_str());
      break;
    }
    ProcessRearms(reactor);
    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      reactor.backend.StopAccepting();
    }
    // in_flight_ and the queue are global: every reactor waits for the
    // whole server to drain so no reactor exits while a worker still owes
    // one of its connections a rearm.
    if (draining && in_flight_.load(std::memory_order_acquire) == 0) {
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_empty = queue_.empty();
        if (queue_empty) queue_closed_ = true;
      }
      if (queue_empty) {
        queue_cv_.notify_all();
        // Give parked sends a bounded grace period (~5s of poll ticks) to
        // reach their slow readers before cutting them off.
        if (!AnyPendingSend(reactor) || ++drain_spins >= 50) break;
      }
    }
  }
  // Close whatever is still registered (idle keep-alive connections).
  std::vector<Connection*> remaining(reactor.connections.begin(),
                                     reactor.connections.end());
  for (Connection* conn : remaining) CloseConnection(reactor, conn);
  reactor.backend.Shutdown();
}

bool HttpServer::AnyPendingSend(Reactor& reactor) const {
  for (Connection* conn : reactor.connections) {
    if (conn->io != nullptr && reactor.backend.HasPendingSend(conn->io)) {
      return true;
    }
  }
  return false;
}

void HttpServer::OnAccept(Reactor& reactor, int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto* conn = new Connection(fd, limits_, &reactor);
  conn->io = reactor.backend.Add(fd, conn);
  if (conn->io == nullptr) {
    ::close(fd);
    delete conn;
    return;
  }
  reactor.connections.insert(conn);
  accepted_.fetch_add(1, std::memory_order_relaxed);
}

bool HttpServer::OnRecv(Reactor& reactor, Connection* conn,
                        std::string_view data) {
  const auto state = conn->parser.Feed(data);
  if (state == HttpRequestParser::State::kComplete) {
    return DrainParsed(reactor, conn);
  }
  if (state == HttpRequestParser::State::kError) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response;
    response.status_code = 400;
    response.keep_alive = false;
    response.body = "{\"error\":\"" + conn->parser.error() + "\"}";
    SendControl(reactor, conn, response);
    return false;
  }
  return true;  // need more bytes
}

void HttpServer::OnSendDrained(Reactor& reactor, Connection* conn) {
  if (conn->close_after_send ||
      stopping_.load(std::memory_order_acquire)) {
    CloseConnection(reactor, conn);
    return;
  }
  // Serve any pipelined requests buffered while the send was in flight;
  // only then re-open the receive path.
  if (!DrainParsed(reactor, conn)) return;
  reactor.backend.ResumeRecv(conn->io);
}

bool HttpServer::DrainParsed(Reactor& reactor, Connection* conn) {
  for (;;) {
    const auto state = conn->parser.Reparse();
    if (state == HttpRequestParser::State::kError) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse response;
      response.status_code = 400;
      response.keep_alive = false;
      response.body = "{\"error\":\"" + conn->parser.error() + "\"}";
      SendControl(reactor, conn, response);
      return false;
    }
    if (state != HttpRequestParser::State::kComplete) return true;
    if (!HandleParsedRequest(reactor, conn, conn->parser.TakeRequest())) {
      return false;
    }
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

bool HttpServer::HandleParsedRequest(Reactor& reactor, Connection* conn,
                                     HttpRequest request) {
  const RouteEntry* route = nullptr;
  bool path_known = false;
  FindRoute(request.method, request.path, &route, &path_known);

  // Read path (and 404/405): run to completion on this reactor — no queue
  // hop, no shedding (inline work is bounded by the synopsis, not the
  // base data).
  if (route == nullptr || route->run_inline) {
    return ServeInline(reactor, conn, route, path_known, request);
  }

  // Mutating route: hand the connection to the worker pool, or shed.  The
  // WorkItem carries a fixed-size copy of the request views; the parser
  // storage they point into stays untouched (receive delivery is
  // suspended) until the worker pushes its rearm.
  reactor.backend.SuspendRecv(conn->io);
  WorkItem item;
  item.conn = conn;
  item.request = request;
  item.route = route;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_closed_ || queue_.size() >= options_.queue_capacity) {
      shed = true;
    } else {
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      // Count before the push: once a worker can see the item it may
      // write the response, and stats read after a received response
      // must already include it.
      requests_.fetch_add(1, std::memory_order_relaxed);
      queue_.push_back(std::move(item));
    }
  }
  if (shed) {
    responses_503_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response;
    response.status_code = 503;
    response.keep_alive = false;
    response.body = "{\"error\":\"request queue full; retry with backoff\"}";
    SendControl(reactor, conn, response);
    return false;
  }
  queue_cv_.notify_one();
  return false;  // connection now owned by the worker until rearmed
}

bool HttpServer::FinishSend(Reactor& reactor, Connection* conn,
                            IoBackend::SendResult result, bool keep_alive) {
  if (result == IoBackend::SendResult::kError) {
    CloseConnection(reactor, conn);
    return false;
  }
  if (result == IoBackend::SendResult::kPending) {
    // Backpressure: no new request is read for this connection while its
    // response is still leaving — the parser cannot grow unboundedly
    // behind a reader that never drains.
    conn->close_after_send = !keep_alive;
    reactor.backend.SuspendRecv(conn->io);
    return false;
  }
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
  if (cacheable) {
    if (const std::shared_ptr<const std::string>* pinned =
            reactor.cache.LookupPinned(scope, epoch, key)) {
      // Hit: replay the stored bytes verbatim — no handler, no snapshot
      // pin, no allocation.  The entry itself is handed to the backend,
      // which writes from it in place and pins it only if a tail parks,
      // so a slow reader's tail survives an epoch advance with no copy.
      const std::string& wire = **pinned;
      return FinishSend(reactor, conn,
                        reactor.backend.Send(conn->io, wire, {}, pinned),
                        request.keep_alive);
    }
  }

  // Render into the reactor's scratch response and serialize the head into
  // the reactor's scratch head buffer: both keep their capacity across
  // requests, so the warmed cold path never allocates.
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

  std::string& head = reactor.head_scratch;
  head.clear();
  response.SerializeHeadInto(&head);
  // The scratch buffers are volatile: if the socket cannot take every
  // byte now, the backend copies the tail before returning (the scratch
  // is reused by the very next request).
  const IoBackend::SendResult sent =
      reactor.backend.Send(conn->io, head, response.body, nullptr);

  if (cacheable && response.status_code == 200 &&
      response.keep_alive == request.keep_alive) {
    // Store only when the epoch did not move while the handler ran: equal
    // bracketing reads of the scope's monotonic serving epoch prove every
    // snapshot the handler saw belonged to that epoch, so the
    // bytes are valid for the whole epoch (byte-identical replay).
    // Pinning the entry builds the contiguous wire string — the one
    // deliberate allocation on this path, paid once per (scope, epoch,
    // key), amortized across every later hit.
    const std::optional<RouteOptions::ScopedEpoch> epoch_after =
        route->scoped_epoch(request);
    if (epoch_after.has_value() && epoch_after->scope == scope &&
        epoch_after->epoch == epoch) {
      std::string wire;
      wire.reserve(head.size() + response.body.size());
      wire.append(head);
      wire.append(response.body);
      reactor.cache.Store(scope, epoch, key, std::move(wire));
    }
  }

  return FinishSend(reactor, conn, sent, response.keep_alive);
}

void HttpServer::ProcessRearms(Reactor& reactor) {
  std::vector<RearmItem> items;
  {
    std::lock_guard<std::mutex> lock(reactor.rearm_mutex);
    items.swap(reactor.rearms);
  }
  for (RearmItem& item : items) {
    Connection* conn = item.conn;
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (item.has_pending) {
      // The worker's nonblocking write left a tail; finish it through the
      // backend (still delivering the response even when draining).
      const IoBackend::SendResult sent =
          reactor.backend.Send(conn->io, item.pending_wire, {}, nullptr);
      if (sent == IoBackend::SendResult::kError) {
        CloseConnection(reactor, conn);
        continue;
      }
      if (sent == IoBackend::SendResult::kPending) {
        conn->close_after_send =
            item.close || stopping_.load(std::memory_order_acquire);
        continue;  // receive stays suspended until the send drains
      }
    }
    if (item.close || stopping_.load(std::memory_order_acquire)) {
      CloseConnection(reactor, conn);
      continue;
    }
    // Pipelined requests already buffered are served without a read (and
    // may bounce the connection straight back to the worker pool).
    if (!DrainParsed(reactor, conn)) continue;
    reactor.backend.ResumeRecv(conn->io);
  }
}

void HttpServer::CloseConnection(Reactor& reactor, Connection* conn) {
  if (conn->io != nullptr) {
    reactor.backend.Close(conn->io);
  } else if (conn->fd >= 0) {
    ::close(conn->fd);
  }
  reactor.connections.erase(conn);
  delete conn;
}

void HttpServer::SendControl(Reactor& reactor, Connection* conn,
                             const HttpResponse& response) {
  const std::string wire = response.Serialize();
  const IoBackend::SendResult sent =
      reactor.backend.Send(conn->io, wire, {}, nullptr);
  if (sent == IoBackend::SendResult::kPending) {
    conn->close_after_send = true;
    reactor.backend.SuspendRecv(conn->io);
    return;
  }
  // Control responses (400/503) always close, drained or failed alike.
  CloseConnection(reactor, conn);
}

void HttpServer::WorkerLoop() {
  // Per-worker render scratch, reused across every request this thread
  // serves (same capacity-retention discipline as the reactor scratch).
  HttpResponse response;
  std::string head;
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }

    response.Reset();
    item.route->handler(item.request, &response);
    response.keep_alive = response.keep_alive && item.request.keep_alive;

    head.clear();
    response.SerializeHeadInto(&head);
    // Write what the socket takes right now; an unsent tail rides the
    // rearm back to the owning reactor, whose backend finishes it.
    RearmItem rearm;
    rearm.conn = item.conn;
    const WriteNow wrote =
        WritevNonblock(item.conn->fd, head, response.body,
                       &rearm.pending_wire);
    rearm.has_pending = wrote == WriteNow::kTail;
    rearm.close = wrote == WriteNow::kError || !response.keep_alive;

    // Hand the connection back to its owning reactor for re-arming.
    Reactor* owner = item.conn->owner;
    {
      std::lock_guard<std::mutex> lock(owner->rearm_mutex);
      owner->rearms.push_back(std::move(rearm));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(owner->event_fd, &one, sizeof(one));
  }
}

}  // namespace aqua
