#ifndef AQUA_SERVER_SERVER_H_
#define AQUA_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
#include "server/response_cache.h"

namespace aqua {

/// Configuration of an HttpServer.
struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start().
  std::uint16_t port = 0;
  /// Shared-nothing IO reactors.  Each owns an SO_REUSEPORT listener, an
  /// epoll loop, a connection registry and a response cache; the kernel
  /// spreads incoming connections across them by flow hash.
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
/// reactor owns its own SO_REUSEPORT listener socket, level-triggered epoll
/// loop, wake eventfd, connection registry and response cache, so the read
/// path never crosses a thread.  A connection is accepted by
/// exactly one reactor and lives there: reads, parsing, inline handling,
/// response writes and keep-alive re-arming all happen on that reactor's
/// thread.
///
/// Read-path (inline) routes run to completion on the reactor — no queue
/// hop, no cross-thread rearm — and may serve fully cached wire bytes via
/// the per-reactor ResponseCache.  Every inline response is appended to
/// the connection's output buffer, and the buffer goes out in one send()
/// once the parser holds no further complete request, so a pipelined
/// burst read in one read() is answered with one write.  The reactor never
/// blocks on a slow reader: a short write parks the unsent tail on the
/// connection (EPOLLOUT rearm) and receive stays suspended until it
/// drains.  Every write passes MSG_NOSIGNAL, so a peer that closes before
/// reading its response costs its connection, never the process.
/// Mutating routes are handed to a shared bounded queue consumed by worker
/// threads, which compute the response, write what the socket accepts
/// without blocking, and return the connection (with any unsent tail in
/// its output buffer) to its owning reactor.  Keep-alive and pipelined
/// requests are supported (a pipeline may interleave inline and worker
/// requests, and the responses keep request order); chunked uploads are
/// not.
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
  /// duration of the call.
  using Handler = std::function<void(const HttpRequest&, HttpResponse*)>;

  explicit HttpServer(const HttpServerOptions& options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for exact (method, path) matches.  Must be called
  /// before Start().  Unknown paths answer 404; known paths with a
  /// different method answer 405.
  void Route(std::string method, std::string path, Handler handler,
             RouteOptions route_options = {});

  /// Registers a handler for every path starting with `prefix` (e.g.
  /// "/attr/").  Exact routes win over prefixes; among prefixes the longest
  /// match wins.  Must be called before Start().  A path matched only by a
  /// prefix with a different method answers 405 like exact routes.
  void RoutePrefix(std::string method, std::string prefix, Handler handler,
                   RouteOptions route_options = {});

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

  /// Transport counters, summed over the reactors (DESIGN.md §14).
  struct IoStats {
    /// Every syscall a reactor thread made (epoll_wait/ctl, accept4,
    /// read, send, eventfd reads, close); the workers' writes are not
    /// counted.
    std::int64_t syscalls = 0;
    /// Sends of a connection buffer whose every byte was written at once.
    std::int64_t direct_sends = 0;
    /// Responses that went out in one send behind an earlier response of
    /// the same send: a send carrying n responses adds n - 1.
    std::int64_t coalesced_responses = 0;
    /// Sends whose unsent tail was copied and parked for a slow reader,
    /// and the bytes copied.
    std::int64_t copied_sends = 0;
    std::int64_t copied_bytes = 0;
    std::int64_t bytes_sent = 0;
    std::int64_t bytes_received = 0;
  };

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
    IoStats io;
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

  /// One accepted connection: one heap object, registered in its reactor's
  /// epoll set with itself as the event's data.ptr.
  struct Connection {
    /// -1 once closed: the reactor frees a closed connection only after
    /// the epoll_wait batch it was closed in, whose later events may still
    /// carry its pointer.
    int fd = -1;
    HttpRequestParser parser;
    /// The reactor that accepted this connection; workers hand it back
    /// here for re-arming.
    Reactor* owner = nullptr;
    /// Responses not yet sent, in request order, and how many there are.
    /// Keeps its capacity, so a warmed connection appends without
    /// allocating.  A worker leaves its unsent tail here for the rearm.
    std::string out;
    std::int64_t out_responses = 0;
    /// The request a worker is serving; its views point into `parser`,
    /// which the reactor leaves alone until the worker's rearm.
    HttpRequest request;
    /// Close once the parked tail drains (Connection: close, or a control
    /// response like 400/503).
    bool close_after_send = false;
    /// Transport state, reactor-thread-owned.  EPOLLIN is armed while
    /// `recv_on` and EPOLLOUT while a tail is parked; a connection with
    /// neither (a worker's) leaves the epoll set, so level-triggered
    /// hangups cannot spin the reactor while a worker owns it.
    bool recv_on = true;
    bool registered = false;
    /// Unsent bytes copied out of `out` when the socket filled, and how
    /// many of them have gone since; nonempty exactly while parked.
    std::string parked;
    std::size_t parked_sent = 0;
    Connection(int f, const HttpRequestParser::Limits& limits, Reactor* r)
        : fd(f), parser(limits), owner(r) {}
  };

  /// A worker-routed request waiting in the queue; the request itself
  /// stays in its Connection.
  struct WorkItem {
    Connection* conn = nullptr;
    const RouteEntry* route = nullptr;
  };

  /// A connection a worker hands back; any unsent tail of its response is
  /// in `conn->out`.
  struct RearmItem {
    Connection* conn = nullptr;
    bool close = false;
  };

  /// One shared-nothing IO reactor (one thread's worth of serving state).
  struct Reactor {
    std::size_t index = 0;
    int listen_fd = -1;
    int event_fd = -1;
    int epoll_fd = -1;
    std::thread thread;
    /// Reactor-thread-owned registry of live connections, and the closed
    /// ones waiting for the end of the epoll_wait batch to be freed.
    std::unordered_set<Connection*> connections;
    std::vector<Connection*> closed;
    /// Connections finished by workers, waiting for this reactor to
    /// re-arm or close them.
    std::mutex rearm_mutex;
    std::vector<RearmItem> rearms;
    /// Reactor-thread-owned: the batch ProcessRearms() works through.  It
    /// trades places with `rearms` under the lock, so both vectors keep
    /// their capacity and a warmed handoff never allocates or frees.
    std::vector<RearmItem> rearms_draining;
    /// Reactor-local response cache: no shared locks on the hit path.
    ResponseCache cache;
    /// Render scratch reused across every inline request this reactor
    /// serves: the response body keeps its capacity, so a warmed cold
    /// path (cache miss or uncacheable route) renders without touching
    /// the allocator.
    HttpResponse response_scratch;
    /// CPU this reactor's thread got pinned to, or -1.
    std::atomic<int> pinned_cpu{-1};
    /// IoStats, counted by this reactor's thread in relaxed atomics so
    /// Stats() may read them from any thread.
    std::atomic<std::int64_t> syscalls{0}, direct_sends{0},
        coalesced_responses{0}, copied_sends{0}, copied_bytes{0},
        bytes_sent{0}, bytes_received{0};

    explicit Reactor(const ResponseCacheOptions& cache_options)
        : cache(cache_options) {}
  };

  void AddRoute(std::vector<RouteEntry>* table, std::string method,
                std::string path, Handler handler,
                RouteOptions route_options);
  /// Opens the reactor's listener, wake eventfd and epoll set.
  Status StartListener(Reactor& reactor);
  /// The reactor thread: epoll_wait, dispatch, the deferred free, rearms
  /// and the graceful drain.
  void IoLoop(Reactor& reactor);
  void Accept(Reactor& reactor);
  /// Reads what the socket holds and serves every request it completes.
  void ReadReady(Reactor& reactor, Connection* conn);
  /// Writes the parked tail on EPOLLOUT; once it drains, serves the
  /// requests that waited behind it and re-arms receive.
  void FlushParked(Reactor& reactor, Connection* conn);
  /// Brings the connection's epoll registration in line with `recv_on`
  /// and its parked tail.
  bool SyncMask(Reactor& reactor, Connection* conn);
  /// Arms or disarms receive for the connection.  Idempotent.
  void SetRecv(Reactor& reactor, Connection* conn, bool on);
  /// Serves every already-parsed request on `conn` (inline routes run to
  /// completion here; a worker route hands the connection off and stops),
  /// then sends the inline responses with one FinishSend().  Returns false
  /// when receive must stop for now (connection closed, dispatched to a
  /// worker, or a tail parked).
  bool DrainParsed(Reactor& reactor, Connection* conn);
  /// Routes the parsed request the parser holds: inline handling (with
  /// response cache), or, once the buffered responses are sent, worker
  /// dispatch with 503 shedding.  Same return convention as DrainParsed.
  bool HandleParsedRequest(Reactor& reactor, Connection* conn);
  /// Inline path: cache lookup or handler, response appended to
  /// `conn->out`, store; sends the buffer early on Connection: close or
  /// at the size cap.  Same return convention as DrainParsed.
  bool ServeInline(Reactor& reactor, Connection* conn,
                   const RouteEntry* route, bool path_known,
                   const HttpRequest& request);
  /// Sends `conn->out` with one send() without blocking: a tail the
  /// socket does not take is copied to `conn->parked` and receive is
  /// suspended until it drains.  Closes on a write error, and when
  /// !keep_alive once everything is sent.  Same return convention as
  /// DrainParsed.
  bool FinishSend(Reactor& reactor, Connection* conn, bool keep_alive);
  void FindRoute(std::string_view method, std::string_view path,
                 const RouteEntry** route, bool* path_known) const;
  void ProcessRearms(Reactor& reactor);
  /// Deregisters and closes the socket now; frees the connection at the
  /// end of the current epoll_wait batch.
  void CloseConnection(Reactor& reactor, Connection* conn);
  /// Appends a control response (400/503) behind the buffered responses,
  /// sends them, and closes the connection once they drain.
  void SendControl(Reactor& reactor, Connection* conn, int status_code,
                   std::string body);
  /// A worker thread: serves queued requests, rendering into `response`,
  /// which keeps its capacity across them (as the reactor's scratch does).
  void WorkerLoop(HttpResponse response);

  HttpServerOptions options_;
  HttpRequestParser::Limits limits_;
  std::vector<RouteEntry> routes_;
  std::vector<RouteEntry> prefix_routes_;

  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> workers_;

  // Bounded request queue shared by all reactors (mutex + cv; closed on
  // drain once empty): a fixed ring of queue_capacity slots holding
  // queue_size_ items from queue_head_ on, so a push never allocates.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<WorkItem> queue_ring_;
  std::size_t queue_head_ = 0;
  std::size_t queue_size_ = 0;
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
