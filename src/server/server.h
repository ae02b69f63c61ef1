#ifndef AQUA_SERVER_SERVER_H_
#define AQUA_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "server/http.h"
#include "server/io_backend.h"
#include "server/response_cache.h"

namespace aqua {

/// Configuration of an HttpServer.
struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start().
  std::uint16_t port = 0;
  /// Shared-nothing IO reactors.  Each owns an SO_REUSEPORT listener, an
  /// epoll transport, a connection registry and a response cache; the
  /// kernel spreads incoming connections across them by flow hash.
  int reactors = 1;
  /// Handler threads for worker-dispatched (mutating) routes.
  int workers = 4;
  /// Bounded request queue: parsed worker-route requests waiting for a
  /// worker.  When full, new worker-route requests are answered 503
  /// immediately — backpressure instead of unbounded queueing (the
  /// BlinkDB-style bounded-response contract: shed load rather than
  /// stretch latency).  Inline routes never queue and never shed.
  std::size_t queue_capacity = 256;
  std::size_t max_header_bytes = 16 * 1024;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  /// Pin reactor i to CPU (i mod online CPUs) via pthread_setaffinity_np,
  /// so a scaling run measures per-core serving instead of scheduler
  /// placement.  Best effort: a failed pin is recorded as unpinned in
  /// Stats(), not an error.
  bool pin_reactors = false;
  /// Test hook: SO_SNDBUF (bytes) set on every listener and inherited by
  /// accepted sockets; 0 keeps the kernel default.  The slow-reader tests
  /// shrink this to force partial writes on the reactor path.
  int sndbuf = 0;
  /// Per-reactor response-cache sizing.
  ResponseCacheOptions cache;
};

/// Per-route serving policy.
struct RouteOptions {
  /// Where the handler runs.  kAuto maps GET to the reactor (read path,
  /// run-to-completion, no queue hop) and everything else to the worker
  /// pool.  Register a blocking GET (e.g. a debug sleeper) with kWorker
  /// explicitly so it cannot stall a reactor.
  enum class Dispatch { kAuto, kWorker };
  Dispatch dispatch = Dispatch::kAuto;
  /// Optional per-request veto consulted for routes with a scoped_epoch
  /// (prefix routes covering a mix of cacheable and live paths).  Return
  /// false to serve the request uncached.
  std::function<bool(const HttpRequest&)> cacheable_if;
  /// Optional canonical cache-key builder for routes whose query strings
  /// have many spellings of one meaning (/query's SQL text): append the
  /// canonical form of `request` to the string and return true, or return
  /// false to serve the request uncached (e.g. unparseable input).  The
  /// raw query string is then NOT part of the key, so every spelling hits
  /// one entry.  Must append deterministically and never allocate beyond
  /// the caller's string.
  std::function<bool(const HttpRequest&, std::string*)> canonical_key;
  /// The (scope, epoch) pair a scoped epoch source resolves for one
  /// request: the serving surface that owns the response's bytes (a
  /// catalog attribute, the engine's stream) and that surface's current
  /// serving epoch.  `scope` must stay valid for the handler call — a
  /// view of the request path or a static literal.
  struct ScopedEpoch {
    std::string_view scope;
    std::uint64_t epoch = 0;
  };
  /// The per-request scoped epoch source; an inline route caches exactly
  /// when it sets one.  200 responses are then served from / stored into
  /// the reactor's response cache, keyed under the returned scope's own
  /// epoch, so an epoch advance on one scope (one attribute's ingest)
  /// leaves every other scope's warmed entries intact — surgical instead
  /// of wholesale invalidation.  Return nullopt to serve the request
  /// uncached (the scope's epoch is unsettled or the request doesn't
  /// resolve to one scope).
  std::function<std::optional<ScopedEpoch>(const HttpRequest&)> scoped_epoch;
};

/// An HTTP/1.1 server scaled across N shared-nothing reactors: every
/// reactor owns its own SO_REUSEPORT listener socket, epoll transport
/// (IoBackend), wake eventfd, connection registry and response cache, so
/// the read path never crosses a thread.  A connection is accepted by
/// exactly one reactor and lives there: reads, parsing, inline handling,
/// response writes and keep-alive re-arming all happen on that reactor's
/// thread.
///
/// Read-path (inline) routes run to completion on the reactor — no queue
/// hop, no cross-thread rearm — and may serve fully cached wire bytes via
/// the per-reactor ResponseCache.  The reactor never blocks on a slow
/// reader: a short write parks the unsent tail with the backend (EPOLLOUT
/// rearm) and receive delivery stays suspended until it drains.  Mutating
/// routes are handed to a shared bounded queue consumed by worker threads,
/// which compute the response, write what the socket accepts without
/// blocking, and return the connection (plus any unsent tail) to its
/// owning reactor.  Keep-alive and pipelined requests are supported (a
/// pipeline may interleave inline and worker requests); chunked uploads
/// are not.
///
/// Lifecycle: Route(...) then Start(); Shutdown() stops accepting, drains
/// queued and in-flight requests, then joins every thread (graceful drain
/// — wire it to SIGTERM in main()).  Wait() blocks until a Shutdown()
/// completes.
class HttpServer {
 public:
  /// Out-param handler form: the server passes a Reset() response whose
  /// strings keep their capacity across requests, so a warmed handler
  /// renders without allocating.  The request's views are valid for the
  /// duration of the call (and, for worker routes, until the rearm is
  /// pushed).
  using Handler = std::function<void(const HttpRequest&, HttpResponse*)>;
  /// Return-by-value convenience form (tests, simple endpoints); wrapped
  /// into a Handler at registration, paying one response copy per call.
  using SimpleHandler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(const HttpServerOptions& options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for exact (method, path) matches.  Must be called
  /// before Start().  Unknown paths answer 404; known paths with a
  /// different method answer 405.
  void Route(std::string method, std::string path, Handler handler,
             RouteOptions route_options = {});
  void Route(std::string method, std::string path, SimpleHandler handler,
             RouteOptions route_options = {});

  /// Registers a handler for every path starting with `prefix` (e.g.
  /// "/attr/").  Exact routes win over prefixes; among prefixes the longest
  /// match wins.  Must be called before Start().  A path matched only by a
  /// prefix with a different method answers 405 like exact routes.
  void RoutePrefix(std::string method, std::string prefix, Handler handler,
                   RouteOptions route_options = {});
  void RoutePrefix(std::string method, std::string prefix,
                   SimpleHandler handler, RouteOptions route_options = {});

  /// Binds the per-reactor listeners and spawns the reactor + worker
  /// threads.
  Status Start();

  /// The bound port (valid after Start(); all reactors share it via
  /// SO_REUSEPORT).
  std::uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, answer everything already queued or
  /// in flight, join all threads.  Idempotent; safe from any thread except
  /// a reactor or worker.
  void Shutdown();

  /// Blocks until Shutdown() has completed (from any thread).
  void Wait();

  struct ServerStats {
    std::int64_t accepted = 0;
    std::int64_t requests = 0;
    std::int64_t responses_503 = 0;
    std::int64_t bad_requests = 0;
    std::size_t queue_depth = 0;
    std::size_t reactors = 0;
    /// Response-cache counters aggregated across all reactors.
    std::int64_t cache_hits = 0;
    std::int64_t cache_misses = 0;
    std::int64_t cache_bypass = 0;
    std::int64_t cache_invalidations = 0;
    std::int64_t cache_stale_evictions = 0;
    /// Reactors whose CPU pin succeeded (0 when pinning is off).
    int reactors_pinned = 0;
    /// Transport counters aggregated across all reactors' backends.
    IoBackend::Stats io;
  };
  ServerStats Stats() const;

 private:
  struct RouteEntry {
    std::string method;
    /// Exact path, or prefix for prefix routes.
    std::string path;
    Handler handler;
    bool run_inline = false;
    std::function<bool(const HttpRequest&)> cacheable_if;
    std::function<bool(const HttpRequest&, std::string*)> canonical_key;
    std::function<std::optional<RouteOptions::ScopedEpoch>(
        const HttpRequest&)>
        scoped_epoch;
  };

  struct Reactor;

  struct Connection {
    int fd = -1;
    HttpRequestParser parser;
    /// The reactor that accepted this connection; workers hand it back
    /// here for re-arming.
    Reactor* owner = nullptr;
    /// Opaque per-connection handle from the reactor's IoBackend.
    void* io = nullptr;
    /// Close once the pending backend send drains (write failure-free
    /// Connection: close, or a control response like 400/503).
    bool close_after_send = false;
    Connection(int f, const HttpRequestParser::Limits& limits, Reactor* r)
        : fd(f), parser(limits), owner(r) {}
  };

  struct WorkItem {
    Connection* conn = nullptr;
    HttpRequest request;
    const RouteEntry* route = nullptr;
  };

  struct RearmItem {
    Connection* conn = nullptr;
    bool close = false;
    /// Unsent response tail from the worker's nonblocking write; the
    /// reactor finishes it through the backend (empty when the worker's
    /// write completed).
    std::string pending_wire;
    bool has_pending = false;
  };

  /// One shared-nothing IO reactor (one thread's worth of serving state).
  /// Implements IoBackend::Events by forwarding into the server with
  /// itself as context.
  struct Reactor : IoBackend::Events {
    HttpServer* server = nullptr;
    std::size_t index = 0;
    int listen_fd = -1;
    int event_fd = -1;
    /// Reactor-thread-owned, except GetStats(), which any thread may call.
    IoBackend backend;
    std::thread thread;
    /// Reactor-thread-owned registry of live connections.
    std::unordered_set<Connection*> connections;
    /// Connections finished by workers, waiting for this reactor to
    /// re-arm or close them.
    std::mutex rearm_mutex;
    std::vector<RearmItem> rearms;
    /// Reactor-local response cache: no shared locks on the hit path.
    ResponseCache cache;
    /// Render scratch reused across every inline request this reactor
    /// serves: the response body and the serialized head keep their
    /// capacity, so a warmed cold path (cache miss or uncacheable route)
    /// writes the wire without touching the allocator.
    HttpResponse response_scratch;
    std::string head_scratch;
    /// CPU this reactor's thread got pinned to, or -1.
    std::atomic<int> pinned_cpu{-1};

    explicit Reactor(const ResponseCacheOptions& cache_options)
        : cache(cache_options) {}

    void OnAccept(int fd) override { server->OnAccept(*this, fd); }
    bool OnRecv(void* token, std::string_view data) override {
      return server->OnRecv(*this, static_cast<Connection*>(token), data);
    }
    void OnRecvClosed(void* token) override {
      server->CloseConnection(*this, static_cast<Connection*>(token));
    }
    void OnSendDrained(void* token) override {
      server->OnSendDrained(*this, static_cast<Connection*>(token));
    }
    void OnSendError(void* token) override {
      server->CloseConnection(*this, static_cast<Connection*>(token));
    }
    void OnWake() override { server->ProcessRearms(*this); }
  };

  Status StartListener(Reactor& reactor);
  void IoLoop(Reactor& reactor);
  void OnAccept(Reactor& reactor, int fd);
  bool OnRecv(Reactor& reactor, Connection* conn, std::string_view data);
  void OnSendDrained(Reactor& reactor, Connection* conn);
  /// Serves every already-parsed request on `conn` (inline routes run to
  /// completion here; a worker route hands the connection off and stops).
  /// Returns false when receive delivery must stop for now (connection
  /// closed, dispatched to a worker, or a send parked).
  bool DrainParsed(Reactor& reactor, Connection* conn);
  /// Routes one parsed request: inline handling (with response cache) or
  /// worker dispatch with 503 shedding.  Same return convention as
  /// DrainParsed.
  bool HandleParsedRequest(Reactor& reactor, Connection* conn,
                           HttpRequest request);
  /// Inline path: cache lookup, handler, backend send, store.  Same
  /// return convention as DrainParsed.
  bool ServeInline(Reactor& reactor, Connection* conn,
                   const RouteEntry* route, bool path_known,
                   const HttpRequest& request);
  /// Folds a backend Send() result into connection state: closes on error
  /// or Connection: close, suspends receive while a send is pending.
  /// Same return convention as DrainParsed.
  bool FinishSend(Reactor& reactor, Connection* conn,
                  IoBackend::SendResult result, bool keep_alive);
  void FindRoute(std::string_view method, std::string_view path,
                 const RouteEntry** route, bool* path_known) const;
  void ProcessRearms(Reactor& reactor);
  void CloseConnection(Reactor& reactor, Connection* conn);
  /// Sends a control response (400/503) through the backend and marks the
  /// connection to close once it drains.
  void SendControl(Reactor& reactor, Connection* conn,
                   const HttpResponse& response);
  /// True when any connection on this reactor still has a parked send.
  bool AnyPendingSend(Reactor& reactor) const;
  void WorkerLoop();

  HttpServerOptions options_;
  HttpRequestParser::Limits limits_;
  std::vector<RouteEntry> routes_;
  std::vector<RouteEntry> prefix_routes_;

  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> workers_;

  // Bounded request queue shared by all reactors (mutex + cv; closed on
  // drain once empty).
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  bool queue_closed_ = false;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<int> in_flight_{0};
  std::mutex shutdown_mutex_;
  bool shutdown_done_ = false;
  std::condition_variable shutdown_cv_;

  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> responses_503_{0};
  std::atomic<std::int64_t> bad_requests_{0};
};

}  // namespace aqua

#endif  // AQUA_SERVER_SERVER_H_
