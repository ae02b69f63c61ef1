// HTTP serving throughput across the multi-reactor read path.
//
// Default mode spins up in-process HttpServers and measures each scenario
// over real loopback sockets with keep-alive clients:
//
//   cache_hit_micro   ResponseCache BuildKey+Lookup alone (no sockets),
//                     with an allocation counter proving the warmed hit
//                     path is allocation-free (allocs_per_hit metric),
//   uncached_r1       1 reactor, the route without a scoped epoch —
//                     every request renders,
//   cached_r1         1 reactor, same route, settled epoch — steady-state
//                     hits replaying stored wire bytes,
//   cached_wide       N reactors (min(8, hardware)), same cached load from
//                     N client threads — the aggregate-rps scaling number
//                     (honest caveat: on a 1-core container this measures
//                     scheduling overhead, not parallel speedup),
//   pipelined_r1      1 reactor, the cached route, each client writing
//                     5 requests at once and then reading 5 responses.
//
// Each server scenario also reports the transport cost per request from
// the server's own IO counters: syscalls_per_request (epoll_wait +
// accept/read/write calls over served requests), the responses that
// shared a write with an earlier one (coalesced_responses), and the
// direct vs copied (parked) send split.
//
// With --port P the binary instead drives an EXISTING server at
// 127.0.0.1:P (the CI serve-under-load smoke): keep-alive GET load across
// a few routes, reporting status-code counts and exiting nonzero on any
// 5xx — overload 503s are deliberate on worker routes only, and this mode
// sends only inline reads, so every 5xx is a bug.
//
// --smoke shrinks request counts to CI size; --json <path> archives the
// metrics (BENCH_5.json, BENCH_8.json).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/http_client.h"
#include "server/http.h"
#include "server/response_cache.h"
#include "server/server.h"

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
namespace bench {
namespace {

/// ResponseCache hit path alone: BuildKey + Lookup on a warmed cache.
/// Returns false unless every timed lookup hit.
bool CacheHitMicro(BenchReport* report) {
  ResponseCache cache;
  // The request's views point into the parser, which must outlive it.
  HttpRequestParser parser;
  parser.Feed(
      "GET /hotlist?k=10&beta=3&confidence=0.95 HTTP/1.1\r\nHost: b\r\n\r\n");
  const HttpRequest request = parser.TakeRequest();
  cache.Store("hotlist", 1, cache.BuildKey(request), std::string(512, 'x'));
  // Warm the key buffer.
  (void)cache.Lookup("hotlist", 1, cache.BuildKey(request));

  const std::int64_t iters = SmokeMode() ? 20000 : 2000000;
  const std::int64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::int64_t start = NowNs();
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    if (cache.Lookup("hotlist", 1, cache.BuildKey(request)) != nullptr) {
      ++hits;
    }
  }
  const std::int64_t end = NowNs();
  const double elapsed_s = static_cast<double>(end - start) / 1e9;
  const std::int64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;

  const double ns_per_hit =
      static_cast<double>(end - start) / static_cast<double>(iters);
  const double allocs_per_hit =
      static_cast<double>(allocs) / static_cast<double>(iters);
  std::printf("%-16s %10.1f ns/hit  %12.0f hits/s  %.4f allocs/hit\n",
              "cache_hit_micro", ns_per_hit,
              static_cast<double>(hits) / elapsed_s, allocs_per_hit);
  report->Add("cache_hit_micro",
              {{"ns_per_hit", ns_per_hit},
               {"throughput_rps", static_cast<double>(hits) / elapsed_s},
               {"allocs_per_hit", allocs_per_hit}});
  if (hits != iters) {
    std::fprintf(stderr, "cache_hit_micro: %lld of %lld lookups hit\n",
                 static_cast<long long>(hits), static_cast<long long>(iters));
    return false;
  }
  return true;
}

/// One in-process server scenario: a cacheable JSON route under keep-alive
/// GET load.  `settled_epoch` toggles whether the response cache engages;
/// `depth` requests go out in each client write.
void ServerScenario(const std::string& name, int reactors, int threads,
                    bool settled_epoch, int depth, BenchReport* report) {
  HttpServerOptions options;
  options.reactors = reactors;
  options.workers = 1;
  HttpServer server(options);
  RouteOptions cacheable;
  if (settled_epoch) {
    cacheable.scoped_epoch = [](const HttpRequest&) {
      return std::optional<RouteOptions::ScopedEpoch>({"answer", 1});
    };
  }
  server.Route("GET", "/answer",
               [](const HttpRequest& request, HttpResponse* response) {
                 // A render comparable to a real synopsis answer: walk the
                 // parsed query and emit a ~400-byte JSON body.
                 std::string& body = response->body;
                 body = "{\"items\":[";
                 for (int i = 0; i < 24; ++i) {
                   if (i > 0) body += ",";
                   body += "{\"v\":" + std::to_string(i * 37) +
                           ",\"c\":" + std::to_string(1000 - i) + "}";
                 }
                 body += "],\"k\":";
                 const auto k = request.QueryParam("k");
                 body += k.has_value() ? std::string(*k) : "0";
                 body += "}";
               },
               cacheable);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "%s: server failed to start\n", name.c_str());
    return;
  }

  const int per_thread = SmokeMode() ? 200 : 8000;
  const LoadResult load = DriveLoad(server.port(), {"/answer?k=10&beta=3"},
                                    threads, per_thread, /*pin_offset=*/-1,
                                    depth);
  server.Shutdown();

  const LatencySummary summary = Summarize(load.samples_ns, load.elapsed_s);
  // Stats() after Shutdown: the IO counters live in the reactors, which
  // outlive their threads.
  const HttpServer::ServerStats stats = server.Stats();
  const double requests = stats.requests > 0
                              ? static_cast<double>(stats.requests)
                              : 1.0;
  const double syscalls_per_request =
      static_cast<double>(stats.io.syscalls) / requests;
  const double copied_bytes_per_request =
      static_cast<double>(stats.io.copied_bytes) / requests;
  std::printf(
      "%-20s %10.0f rps  p50 %7.0f ns  p99 %8.0f ns  p999 %8.0f ns  "
      "%5.2f sys/req  coalesced %lld  direct/copied sends %lld/%lld  "
      "hits %lld/%lld  errors %lld\n",
      name.c_str(), summary.throughput_rps, summary.p50_ns, summary.p99_ns,
      summary.p999_ns, syscalls_per_request,
      static_cast<long long>(stats.io.coalesced_responses),
      static_cast<long long>(stats.io.direct_sends),
      static_cast<long long>(stats.io.copied_sends),
      static_cast<long long>(stats.cache_hits),
      static_cast<long long>(stats.requests),
      static_cast<long long>(load.errors));
  std::vector<std::pair<std::string, double>> metrics = {
      {"reactors", static_cast<double>(reactors)},
      {"client_threads", static_cast<double>(threads)},
      {"pipeline_depth", static_cast<double>(depth)},
      {"cache_hits", static_cast<double>(stats.cache_hits)},
      {"cache_misses", static_cast<double>(stats.cache_misses)},
      {"errors", static_cast<double>(load.errors)},
      {"syscalls_per_request", syscalls_per_request},
      {"coalesced_responses",
       static_cast<double>(stats.io.coalesced_responses)},
      {"direct_sends", static_cast<double>(stats.io.direct_sends)},
      {"copied_sends", static_cast<double>(stats.io.copied_sends)},
      {"copied_bytes_per_request", copied_bytes_per_request},
  };
  AppendSummaryMetrics("", summary, &metrics);
  report->Add(name, std::move(metrics));
}

/// Scrapes a top-level `"key": <integer>` out of a flat JSON body.
bool ScrapeInt(const std::string& body, const std::string& key,
               std::int64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  std::size_t digit = at + needle.size();
  while (digit < body.size() && body[digit] == ' ') ++digit;
  bool negative = false;
  if (digit < body.size() && body[digit] == '-') {
    negative = true;
    ++digit;
  }
  std::int64_t value = 0;
  bool any = false;
  while (digit < body.size() && body[digit] >= '0' && body[digit] <= '9') {
    value = value * 10 + (body[digit] - '0');
    ++digit;
    any = true;
  }
  if (!any) return false;
  *out = negative ? -value : value;
  return true;
}

/// The `allocs_per_request == 0` smoke: against a server built with
/// -DAQUA_COUNT_GLOBAL_ALLOCS=ON, samples /stats `allocs_total` around a
/// warmed GET window on one keep-alive connection and fails on any delta.
/// The window mixes cache hits (repeated cacheable queries) and cold
/// renders (/stats is never cached), so both paths are covered.  Skips
/// (rc 0) when the server reports alloc_counting=false.
int AllocsPerRequestCheck(std::uint16_t port, BenchReport* report) {
  const int fd = ConnectTo(port);
  if (fd < 0) {
    std::fprintf(stderr, "allocs_per_request: cannot connect\n");
    return 1;
  }
  std::string carry;
  auto get = [&](const std::string& path, std::string* body) {
    const std::string wire = "GET " + path + " HTTP/1.1\r\nHost: b\r\n\r\n";
    if (!SendAll(fd, wire)) return 0;
    return ReadOneBody(fd, &carry, body);
  };
  const std::vector<std::string> paths = {
      "/healthz", "/hotlist?k=10&beta=3", "/frequency?value=17",
      "/distinct", "/stats"};
  // Warm THIS connection's reactor: the first miss of each cacheable path
  // renders and stores (one-time allocations), every thread_local scratch
  // reaches final capacity.
  for (int round = 0; round < 3; ++round) {
    for (const std::string& path : paths) {
      if (get(path, nullptr) != 200) {
        std::fprintf(stderr, "allocs_per_request: warm-up %s failed\n",
                     path.c_str());
        close(fd);
        return 1;
      }
    }
  }
  std::string body;
  if (get("/stats", &body) != 200) {
    close(fd);
    return 1;
  }
  std::int64_t before = 0;
  if (!ScrapeInt(body, "allocs_total", &before) ||
      body.find("\"alloc_counting\":true") == std::string::npos) {
    std::printf(
        "allocs_per_request: server not built with "
        "AQUA_COUNT_GLOBAL_ALLOCS, skipping\n");
    close(fd);
    return 0;
  }
  const int window = SmokeMode() ? 100 : 1000;
  for (int i = 0; i < window; ++i) {
    if (get(paths[static_cast<std::size_t>(i) % paths.size()], nullptr) !=
        200) {
      close(fd);
      return 1;
    }
  }
  if (get("/stats", &body) != 200) {
    close(fd);
    return 1;
  }
  close(fd);
  std::int64_t after = 0;
  if (!ScrapeInt(body, "allocs_total", &after)) return 1;
  const std::int64_t delta = after - before;
  const double per_request = static_cast<double>(delta) / window;
  std::printf("allocs_per_request %lld allocs / %d requests = %.4f\n",
              static_cast<long long>(delta), window, per_request);
  report->Add("allocs_per_request",
              {{"allocs", static_cast<double>(delta)},
               {"requests", static_cast<double>(window)},
               {"allocs_per_request", per_request}});
  if (delta != 0) {
    std::fprintf(stderr,
                 "allocs_per_request: expected 0, measured %lld over %d "
                 "warmed GETs\n",
                 static_cast<long long>(delta), window);
    return 1;
  }
  return 0;
}

/// Client-only mode for the CI serve-under-load smoke: inline-read GET
/// load against an already-running server; any 5xx is a failure (inline
/// routes never shed, so overload 503s cannot legitimately appear here).
/// Follows up with the allocs_per_request == 0 assertion when the server
/// was built with the counting allocator.
int DriveExternal(std::uint16_t port, BenchReport* report,
                  const std::string& json_path) {
  const std::vector<std::string> paths = {
      "/healthz", "/hotlist?k=10&beta=3", "/frequency?value=17",
      "/distinct", "/stats"};
  const int threads = 2;
  const int per_thread = SmokeMode() ? 250 : 5000;
  const LoadResult load = DriveLoad(port, paths, threads, per_thread);
  const LatencySummary summary = Summarize(load.samples_ns, load.elapsed_s);
  std::printf(
      "serve_under_load %10.0f rps  p50 %7.0f ns  p999 %8.0f ns  "
      "5xx %lld  errors %lld\n",
      summary.throughput_rps, summary.p50_ns, summary.p999_ns,
      static_cast<long long>(load.status_5xx),
      static_cast<long long>(load.errors));
  std::vector<std::pair<std::string, double>> metrics = {
      {"status_5xx", static_cast<double>(load.status_5xx)},
      {"errors", static_cast<double>(load.errors)},
  };
  AppendSummaryMetrics("", summary, &metrics);
  report->Add("serve_under_load", std::move(metrics));
  int rc = 0;
  if (load.status_5xx > 0 || load.errors > 0) {
    std::fprintf(stderr,
                 "serve_under_load: %lld 5xx, %lld errors on inline reads\n",
                 static_cast<long long>(load.status_5xx),
                 static_cast<long long>(load.errors));
    rc = 1;
  }
  if (AllocsPerRequestCheck(port, report) != 0) rc = 1;
  report->WriteJson(json_path);
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace aqua

int main(int argc, char** argv) {
  using namespace aqua::bench;  // NOLINT(build/namespaces)
  ApplySmoke(argc, argv);
  const std::string json_path = BenchReport::JsonPathFromArgs(argc, argv);
  BenchReport report("http_throughput");

  std::uint16_t external_port = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0) {
      external_port = static_cast<std::uint16_t>(std::atoi(argv[i + 1]));
    }
  }
  if (external_port != 0) {
    return DriveExternal(external_port, &report, json_path);
  }

  PrintHeader("HTTP serving throughput (multi-reactor + response cache)");
  const bool micro_ok = CacheHitMicro(&report);

  const unsigned hw = std::thread::hardware_concurrency();
  const int wide = static_cast<int>(hw == 0 ? 2 : (hw < 8 ? hw : 8));
  ServerScenario("uncached_r1", /*reactors=*/1, /*threads=*/2,
                 /*settled_epoch=*/false, /*depth=*/1, &report);
  ServerScenario("cached_r1", /*reactors=*/1, /*threads=*/2,
                 /*settled_epoch=*/true, /*depth=*/1, &report);
  // Stable scenario name across machines; the reactor count rides along
  // as a metric (reactors = min(8, hardware_concurrency)).
  ServerScenario("cached_wide", wide, /*threads=*/wide, /*settled_epoch=*/true,
                 /*depth=*/1, &report);
  // The shape of perfbench's freshness probes: five requests per write.
  ServerScenario("pipelined_r1", /*reactors=*/1, /*threads=*/2,
                 /*settled_epoch=*/true, /*depth=*/5, &report);

  if (!report.WriteJson(json_path)) return 1;
  return micro_ok ? 0 : 1;
}
