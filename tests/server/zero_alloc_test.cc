// End-to-end zero-allocation pin for the GET serving path: this TU
// replaces the global operator new/delete with counting versions, runs a
// real HttpServer (one reactor) in-process, and asserts that a warmed GET
// request — socket read, parse, route, answer, JSON render, serialize,
// write — touches the allocator exactly zero times, for every GET route on
// both the single-relation and catalog surfaces, including the planned
// /query route (SQL parse, plan, execute, render).
//
// The first test sends every request with Cache-Control: no-cache, so each
// measured request exercises the full cold render path; the cache hit path
// has its own pins below and in response_cache_test.cc, as do a pipelined
// burst of cached GETs and the worker handoff of a POST.  The client side
// of the loop is also allocation-free (prebuilt request strings, fixed read
// buffer) so the counter isolates the serving path without thread
// bookkeeping.

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/routes.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "warehouse/catalog.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace aqua {
namespace {

constexpr std::size_t kReadBufferBytes = 64 * 1024;

int ConnectTo(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  return fd;
}

/// Length of the Content-Length-framed response at the start of
/// `buf[0, have)`: 0 while it is incomplete, SIZE_MAX when its head has no
/// Content-Length.  Allocation-free.
std::size_t FramedLength(const char* buf, std::size_t have) {
  const char* blank = nullptr;
  // memmem is glibc; a manual scan keeps this portable and alloc-free.
  for (std::size_t at = 0; at + 4 <= have; ++at) {
    if (std::memcmp(buf + at, "\r\n\r\n", 4) == 0) {
      blank = buf + at;
      break;
    }
  }
  if (blank == nullptr) return 0;
  // The server always writes an exact-case Content-Length header.
  constexpr char kKey[] = "Content-Length:";
  constexpr std::size_t kKeyLen = sizeof(kKey) - 1;
  const std::size_t head_len = static_cast<std::size_t>(blank - buf);
  for (std::size_t at = 0; at + kKeyLen <= head_len; ++at) {
    if (std::memcmp(buf + at, kKey, kKeyLen) == 0) {
      std::size_t digit = at + kKeyLen;
      std::size_t content_length = 0;
      while (digit < head_len && buf[digit] == ' ') ++digit;
      while (digit < head_len && buf[digit] >= '0' && buf[digit] <= '9') {
        content_length = content_length * 10 +
                         static_cast<std::size_t>(buf[digit] - '0');
        ++digit;
      }
      const std::size_t total = head_len + 4 + content_length;
      return total <= have ? total : 0;
    }
  }
  return std::numeric_limits<std::size_t>::max();
}

/// Writes one prebuilt wire carrying `responses` pipelined requests and
/// reads exactly that many Content-Length-framed responses into `buf`,
/// allocation-free.  Returns 200 when every response is a 200, else the
/// first other status, or -1 on a short read / timeout / overflow / bytes
/// past the last response.
int RoundTrip(int fd, const std::string& wire, char* buf, int responses = 1) {
  if (write(fd, wire.data(), wire.size()) !=
      static_cast<ssize_t>(wire.size())) {
    return -1;
  }
  std::size_t have = 0;
  std::size_t at = 0;  // start of the next response in buf
  int status = 200;
  for (int r = 0; r < responses; ++r) {
    std::size_t total = 0;
    while ((total = FramedLength(buf + at, have - at)) == 0) {
      if (have >= kReadBufferBytes) return -1;
      struct pollfd pfd = {fd, POLLIN, 0};
      if (poll(&pfd, 1, 15000) <= 0) return -1;
      const ssize_t n = read(fd, buf + have, kReadBufferBytes - have);
      if (n <= 0) return -1;
      have += static_cast<std::size_t>(n);
    }
    if (total == std::numeric_limits<std::size_t>::max()) return -1;
    if (std::memcmp(buf + at, "HTTP/1.1 ", 9) != 0) return -1;
    const int code = (buf[at + 9] - '0') * 100 + (buf[at + 10] - '0') * 10 +
                     (buf[at + 11] - '0');
    if (status == 200) status = code;
    at += total;
  }
  return have == at ? status : -1;  // extra bytes would mean a bug here
}

std::string KeepAliveGet(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

/// A keep-alive GET that bypasses the response cache, so the handler
/// renders it cold every time.
std::string ColdGet(const std::string& target) {
  return "GET " + target +
         " HTTP/1.1\r\nHost: t\r\nCache-Control: no-cache\r\n\r\n";
}

TEST(ZeroAllocServing, EveryGetRouteIsAllocationFreeOnceWarm) {
  // Staleness bounds far beyond the test horizon: after the warm-up
  // queries refresh each snapshot cache once, no refresh (and no epoch
  // advance) happens mid-measurement.  No ingest runs after Start, so the
  // op-count bound is idle anyway; the interval bound is the live one.
  ServingEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.cache_max_stale_ops =
      std::numeric_limits<std::int64_t>::max();
  engine_options.cache_max_stale_interval = std::chrono::hours(24);
  ServingEngine engine(engine_options);

  CatalogOptions catalog_options;
  catalog_options.shards = 1;
  catalog_options.cache_max_stale_ops =
      std::numeric_limits<std::int64_t>::max();
  catalog_options.cache_max_stale_interval = std::chrono::hours(24);
  SynopsisCatalog catalog(/*total_budget_words=*/64 * 1024, catalog_options);
  ASSERT_TRUE(catalog.RegisterAttribute("price").ok());
  ASSERT_TRUE(catalog.Seal().ok());

  std::vector<Value> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) values.push_back(i % 97);
  engine.InsertBatch(values);
  ASSERT_TRUE(catalog.InsertBatch("price", values).ok());

  HttpServerOptions server_options;
  server_options.reactors = 1;
  server_options.workers = 1;
  HttpServer server(server_options);
  RegisterServingRoutes(server, engine);
  RegisterCatalogRoutes(server, catalog);
  RegisterQueryRoutes(server, engine, &catalog);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> targets = {
      "/healthz",
      "/hotlist?k=5&beta=2.0",
      "/frequency?value=3",
      "/count_where?low=0&high=50",
      "/quantile?q=0.5",
      "/distinct",
      "/stats",
      "/attr/price/hotlist?k=5&beta=2.0",
      "/attr/price/frequency?value=3",
      "/attr/price/count_where?low=0&high=50",
      "/attr/price/quantile?q=0.5",
      "/attr/price/distinct",
      "/attr/price/stats",
      // Planned queries: every kind through the SQL frontend, unbounded
      // and bounded, over both the stream and a catalog attribute.  The
      // statements avoid '%' spellings so the request targets stay
      // readable (percent-escapes only encode spaces).
      "/query?q=SELECT%20APPROX(COUNT(*))%20FROM%20stream"
      "%20WHERE%20v%20BETWEEN%200%20AND%2050",
      "/query?q=SELECT%20APPROX(COUNT(*))%20FROM%20stream"
      "%20WHERE%20v%20BETWEEN%200%20AND%2050"
      "%20ERROR%200.02%20CONFIDENCE%200.95",
      "/query?q=SELECT%20APPROX(TOP(5))%20FROM%20stream%20WITHIN%201ms",
      "/query?q=SELECT%20APPROX(COUNT(DISTINCT%20*))%20FROM%20stream",
      "/query?q=SELECT%20APPROX(MEDIAN)%20FROM%20stream",
      "/query?q=SELECT%20APPROX(FREQUENCY(3))%20FROM%20price",
      "/query?q=SELECT%20APPROX(QUANTILE(0.9))%20FROM%20price"
      "%20WITHIN%202ms%20CONFIDENCE%200.99",
  };
  // Every request carries Cache-Control: no-cache, so each one renders
  // cold instead of replaying a cached response — the stronger guarantee
  // (the cached hit path has its own test below).
  std::vector<std::string> wires;
  wires.reserve(targets.size());
  for (const std::string& target : targets) {
    wires.push_back(ColdGet(target));
  }

  static char buf[kReadBufferBytes];
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);

  // Warm-up: every route shape several times over the one connection, so
  // snapshot caches refresh, thread-local answer scratch reaches its final
  // capacity, and the reactor's response/head scratch grows to cover the
  // largest body it will serve.
  constexpr int kWarmRounds = 5;
  for (int round = 0; round < kWarmRounds; ++round) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      ASSERT_EQ(RoundTrip(fd, wires[t], buf), 200)
          << "warm-up " << targets[t];
    }
  }

  // Measure per route so a regression names the allocating endpoint.
  constexpr int kMeasuredRounds = 20;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::int64_t before =
        g_allocations.load(std::memory_order_relaxed);
    int bad_status = 0;
    for (int round = 0; round < kMeasuredRounds; ++round) {
      const int status = RoundTrip(fd, wires[t], buf);
      if (status != 200 && bad_status == 0) bad_status = status;
    }
    const std::int64_t delta =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(bad_status, 0) << targets[t];
    EXPECT_EQ(delta, 0) << targets[t] << " allocated " << delta
                        << " times over " << kMeasuredRounds << " requests";
  }

  // Nothing was answered from the response cache: every cacheable request
  // above bypassed it and rendered.
  const HttpServer::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_GT(stats.cache_bypass, 0);

  close(fd);
  server.Shutdown();
}

TEST(ZeroAllocServing, CachedHitPathIsAllocationFree) {
  // The query routes' scoped epochs key the ResponseCache, so cacheable
  // GETs replay from it once warm: a hash probe + writev from the cached
  // wire, which must be allocation-free per hit.
  ServingEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.cache_max_stale_ops =
      std::numeric_limits<std::int64_t>::max();
  engine_options.cache_max_stale_interval = std::chrono::hours(24);
  ServingEngine engine(engine_options);
  std::vector<Value> values;
  values.reserve(10000);
  for (int i = 0; i < 10000; ++i) values.push_back(i % 53);
  engine.InsertBatch(values);

  HttpServerOptions server_options;
  server_options.reactors = 1;
  server_options.workers = 1;
  HttpServer server(server_options);
  RegisterServingRoutes(server, engine);
  RegisterQueryRoutes(server, engine, nullptr);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> targets = {
      "/hotlist?k=5&beta=2.0",
      "/frequency?value=3",
      "/count_where?low=0&high=50",
      "/quantile?q=0.5",
      "/distinct",
  };
  std::vector<std::string> wires;
  wires.reserve(targets.size());
  for (const std::string& target : targets) {
    wires.push_back(KeepAliveGet(target));
  }

  static char buf[kReadBufferBytes];
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  constexpr int kWarmRounds = 5;
  for (int round = 0; round < kWarmRounds; ++round) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      ASSERT_EQ(RoundTrip(fd, wires[t], buf), 200) << "warm-up " << targets[t];
    }
  }

  const HttpServer::ServerStats warm = server.Stats();
  constexpr int kMeasuredRounds = 20;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
    int bad_status = 0;
    for (int round = 0; round < kMeasuredRounds; ++round) {
      const int status = RoundTrip(fd, wires[t], buf);
      if (status != 200 && bad_status == 0) bad_status = status;
    }
    const std::int64_t delta =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(bad_status, 0) << targets[t];
    EXPECT_EQ(delta, 0) << targets[t] << " allocated " << delta
                        << " times over " << kMeasuredRounds
                        << " cached requests";
  }

  // The measured window really was the hit path.
  const HttpServer::ServerStats stats = server.Stats();
  EXPECT_GE(stats.cache_hits - warm.cache_hits,
            static_cast<std::int64_t>(targets.size()) * kMeasuredRounds);

  close(fd);
  server.Shutdown();
}

TEST(ZeroAllocServing, PipelinedCachedGetsAllocateNothingAndShareOneWrite) {
  // Five cached GETs written at once, as perfbench's freshness probes send
  // them: the reactor answers all five from the response cache into the
  // connection's buffer and sends them with one write.
  ServingEngineOptions engine_options;
  engine_options.shards = 2;
  engine_options.cache_max_stale_ops =
      std::numeric_limits<std::int64_t>::max();
  engine_options.cache_max_stale_interval = std::chrono::hours(24);
  ServingEngine engine(engine_options);
  std::vector<Value> values;
  values.reserve(10000);
  for (int i = 0; i < 10000; ++i) values.push_back(i % 53);
  engine.InsertBatch(values);

  HttpServerOptions server_options;
  server_options.reactors = 1;
  server_options.workers = 1;
  HttpServer server(server_options);
  RegisterServingRoutes(server, engine);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kDepth = 5;
  std::string burst;
  for (int i = 0; i < kDepth; ++i) {
    burst += KeepAliveGet("/frequency?value=" + std::to_string(i));
  }

  static char buf[kReadBufferBytes];
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  constexpr int kWarmBursts = 5;
  for (int round = 0; round < kWarmBursts; ++round) {
    ASSERT_EQ(RoundTrip(fd, burst, buf, kDepth), 200) << "warm-up";
  }

  // The reactor counts a send after its write returns, which may be after
  // the client read the responses: let the warm-up's last send be counted
  // before the window opens.
  HttpServer::ServerStats warm = server.Stats();
  for (int spin = 0; spin < 1000 && warm.io.direct_sends < kWarmBursts;
       ++spin) {
    usleep(1000);
    warm = server.Stats();
  }
  constexpr int kBursts = 20;
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  int bad_status = 0;
  for (int round = 0; round < kBursts; ++round) {
    const int status = RoundTrip(fd, burst, buf, kDepth);
    if (status != 200 && bad_status == 0) bad_status = status;
  }
  const std::int64_t delta =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(bad_status, 0);
  EXPECT_EQ(delta, 0) << "allocated " << delta << " times over " << kBursts
                      << " cached pipelines";

  // Likewise wait for the window's last send to be counted.
  HttpServer::ServerStats stats = server.Stats();
  for (int spin = 0;
       spin < 1000 && stats.io.direct_sends - warm.io.direct_sends < kBursts;
       ++spin) {
    usleep(1000);
    stats = server.Stats();
  }
  EXPECT_GE(stats.cache_hits - warm.cache_hits, kBursts * kDepth);
  // One write per burst, which the other four responses shared.
  EXPECT_EQ(stats.io.direct_sends - warm.io.direct_sends, kBursts);
  EXPECT_EQ(stats.io.coalesced_responses - warm.io.coalesced_responses,
            kBursts * (kDepth - 1));
  // read + write + epoll_wait per burst, plus an epoll_wait per 100 ms
  // poll timeout; a write per response would be 7 per burst.
  EXPECT_LE(stats.io.syscalls - warm.io.syscalls, 4 * kBursts);

  close(fd);
  server.Shutdown();
}

TEST(ZeroAllocServing, WarmWorkerHandoffAllocatesNothing) {
  // A worker-routed POST crosses two queues: reactor -> worker (the
  // request stays in its connection; the queue holds a pointer and the
  // route) and worker -> reactor (the rearm).  Once warm, neither
  // allocates, so a handler that does not allocate is served with none.
  HttpServerOptions server_options;
  server_options.reactors = 1;
  server_options.workers = 1;
  HttpServer server(server_options);
  server.Route("POST", "/ack",
               [](const HttpRequest& request, HttpResponse* response) {
                 response->body.append(request.body);
               });
  ASSERT_TRUE(server.Start().ok());

  const std::string wire =
      "POST /ack HTTP/1.1\r\nHost: t\r\nContent-Length: 7\r\n\r\n[1,2,3]";
  static char buf[kReadBufferBytes];
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  for (int round = 0; round < 10; ++round) {
    ASSERT_EQ(RoundTrip(fd, wire, buf), 200) << "warm-up";
  }

  const HttpServer::ServerStats warm = server.Stats();
  constexpr int kRequests = 50;
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  int bad_status = 0;
  for (int i = 0; i < kRequests; ++i) {
    const int status = RoundTrip(fd, wire, buf);
    if (status != 200 && bad_status == 0) bad_status = status;
  }
  const std::int64_t delta =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(bad_status, 0);
  EXPECT_EQ(delta, 0) << "allocated " << delta << " times over " << kRequests
                      << " worker-routed requests";
  EXPECT_EQ(server.Stats().requests - warm.requests, kRequests);

  close(fd);
  server.Shutdown();
}

}  // namespace
}  // namespace aqua
