// In-process tests of the multi-reactor HttpServer: N SO_REUSEPORT
// reactors serving concurrent clients, inline-vs-worker dispatch on one
// pipelined connection, clients that hang up before reading, and the
// epoch-keyed response cache observed through real sockets (byte-identical
// replay within an epoch, wholesale invalidation on epoch swap,
// Cache-Control: no-cache bypass, and the unsettled-epoch forced miss).
//
// Suites are named Reactor* so the ThreadSanitizer CI job runs them: the
// stress test races cached reads on every reactor against epoch bumps.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/server.h"

namespace aqua {
namespace {

// Retries transient connect failures: under TSan on a loaded host the
// reactors can be slow enough to accept that the kernel refuses briefly.
// A connect that never succeeds still fails the caller's assertions.
int ConnectTo(std::uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  int fd = -1;
  for (int attempt = 0; attempt < 5; ++attempt) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10 << attempt));
  }
  EXPECT_GE(fd, 0) << "connect failed after retries: " << strerror(errno);
  return fd;
}

void SendWire(int fd, const std::string& wire) {
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
}

std::string Request(const std::string& method, const std::string& target,
                    const std::string& extra_headers = "",
                    const std::string& body = "") {
  std::string wire = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
  if (!body.empty()) {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  return wire + extra_headers + "\r\n" + body;
}

/// One complete response off a keep-alive connection: reads headers, then
/// exactly Content-Length body bytes, leaving the stream positioned at the
/// next pipelined response.
struct OneResponse {
  int status = 0;
  std::string wire;  // status line + headers + body, verbatim
  std::string body;
  bool ok = false;
};

/// `carry` holds bytes read past the returned response's frame (a
/// pipelined burst can land several responses in one read); pass the same
/// string for every read off one connection.
OneResponse ReadOne(int fd, std::string* carry = nullptr) {
  OneResponse response;
  std::string raw = carry != nullptr ? std::move(*carry) : std::string();
  if (carry != nullptr) carry->clear();
  char buf[4096];
  std::size_t blank = raw.find("\r\n\r\n");
  while (blank == std::string::npos) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, 15000) <= 0) return response;
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) return response;
    raw.append(buf, static_cast<std::size_t>(n));
    blank = raw.find("\r\n\r\n");
  }
  const std::string lower_key = "content-length:";
  std::size_t content_length = 0;
  for (std::size_t at = 0; at < blank;) {
    std::size_t eol = raw.find("\r\n", at);
    std::string line = raw.substr(at, eol - at);
    for (char& c : line) c = static_cast<char>(std::tolower(c));
    if (line.rfind(lower_key, 0) == 0) {
      content_length = std::stoul(line.substr(lower_key.size()));
    }
    at = eol + 2;
  }
  const std::size_t total = blank + 4 + content_length;
  while (raw.size() < total) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, 15000) <= 0) return response;
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) return response;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  if (raw.rfind("HTTP/1.1 ", 0) == 0) {
    response.status = std::stoi(raw.substr(9, 3));
  }
  response.wire = raw.substr(0, total);
  response.body = raw.substr(blank + 4, content_length);
  if (carry != nullptr) *carry = raw.substr(total);
  response.ok = true;
  return response;
}

OneResponse FetchOnce(std::uint16_t port, const std::string& target,
                      const std::string& extra_headers = "") {
  const int fd = ConnectTo(port);
  SendWire(fd, Request("GET", target, extra_headers + "Connection: close\r\n"));
  OneResponse response = ReadOne(fd);
  close(fd);
  return response;
}

TEST(ReactorServerTest, ConcurrentClientsAcrossReactors) {
  HttpServerOptions options;
  options.reactors = 4;
  options.workers = 2;
  HttpServer server(options);

  std::atomic<std::int64_t> sum{0};
  server.Route("GET", "/ping", [](const HttpRequest&, HttpResponse* r) {
    r->body = "pong";
  });
  server.Route("POST", "/add",
               [&sum](const HttpRequest& request, HttpResponse* r) {
                 sum.fetch_add(std::stoll(std::string(request.body)),
                               std::memory_order_relaxed);
                 r->body = "ok";
               });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int fd = ConnectTo(server.port());
        if (i % 2 == 0) {
          SendWire(fd, Request("GET", "/ping", "Connection: close\r\n"));
          const OneResponse r = ReadOne(fd);
          if (!r.ok || r.status != 200 || r.body != "pong") {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          SendWire(fd, Request("POST", "/add", "Connection: close\r\n",
                               std::to_string(t + 1)));
          const OneResponse r = ReadOne(fd);
          if (!r.ok || r.status != 200) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        close(fd);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Each thread t posted (t+1) ten times.
  std::int64_t want = 0;
  for (int t = 0; t < kThreads; ++t) want += (t + 1) * (kPerThread / 2);
  EXPECT_EQ(sum.load(), want);

  const HttpServer::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.reactors, 4u);
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  server.Shutdown();
}

TEST(ReactorServerTest, PipelinedConnectionMixesInlineAndWorkerRoutes) {
  HttpServerOptions options;
  options.reactors = 2;
  options.workers = 1;
  HttpServer server(options);
  std::atomic<int> posts{0};
  server.Route("GET", "/a", [](const HttpRequest&, HttpResponse* r) {
    r->body = "AA";
  });
  server.Route("POST", "/b",
               [&posts](const HttpRequest& request, HttpResponse* r) {
                 posts.fetch_add(1, std::memory_order_relaxed);
                 r->body = std::string("B:").append(request.body);
               });
  ASSERT_TRUE(server.Start().ok());

  // One keep-alive connection, three requests written in a single burst:
  // inline, worker, inline.  The worker hop hands the connection back to
  // its owning reactor, which must then drain the already-buffered third
  // request.  Responses must come back complete and in order.
  const int fd = ConnectTo(server.port());
  SendWire(fd, Request("GET", "/a") + Request("POST", "/b", "", "x") +
                   Request("GET", "/a", "Connection: close\r\n"));
  std::string carry;
  const OneResponse first = ReadOne(fd, &carry);
  const OneResponse second = ReadOne(fd, &carry);
  const OneResponse third = ReadOne(fd, &carry);
  close(fd);

  ASSERT_TRUE(first.ok && second.ok && third.ok);
  EXPECT_EQ(first.body, "AA");
  EXPECT_EQ(second.body, "B:x");
  EXPECT_EQ(third.body, "AA");
  EXPECT_EQ(posts.load(), 1);
  server.Shutdown();
}

// Clients that send a request for a 1 MiB response and close (or, with
// `reset`, abort with an RST) without reading it.  The response overflows
// the socket buffers, so the server is still writing, from the reactor or
// from a worker, when the peer's RST lands; a plain write() there raises
// SIGPIPE, which kills the whole process embedding the server.  The server
// must drop those connections and keep serving.
void ServeClientsThatHangUpUnread(bool reset) {
  HttpServerOptions options;
  options.reactors = 2;
  options.workers = 2;
  HttpServer server(options);
  const std::string big(1 << 20, 'x');
  const auto big_handler = [&big](const HttpRequest&, HttpResponse* r) {
    r->body = big;
  };
  server.Route("GET", "/big", big_handler);
  server.Route("POST", "/big", big_handler);
  server.Route("GET", "/ping", [](const HttpRequest&, HttpResponse* r) {
    r->body = "pong";
  });
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 50; ++i) {
    const int fd = ConnectTo(server.port());
    if (reset) {
      const linger abort_on_close = {1, 0};
      ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
                           sizeof(abort_on_close)),
                0);
    }
    SendWire(fd, i % 2 == 0 ? Request("GET", "/big")
                            : Request("POST", "/big", "", "x"));
    close(fd);
  }

  const OneResponse after = FetchOnce(server.port(), "/ping");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, "pong");
  server.Shutdown();
}

TEST(ReactorServerTest, ClientsClosingBeforeReadingCannotKillTheServer) {
  ServeClientsThatHangUpUnread(/*reset=*/false);
}

TEST(ReactorServerTest, ClientsResettingBeforeReadingCannotKillTheServer) {
  ServeClientsThatHangUpUnread(/*reset=*/true);
}

TEST(ReactorServerTest, CacheReplaysBytesWithinEpochAndInvalidatesOnSwap) {
  HttpServerOptions options;
  options.reactors = 2;
  HttpServer server(options);

  std::atomic<std::uint64_t> epoch{1};
  std::atomic<int> renders{0};
  RouteOptions cacheable;
  cacheable.scoped_epoch = [&epoch](const HttpRequest&) {
    return std::optional<RouteOptions::ScopedEpoch>({"render", epoch.load()});
  };
  server.Route("GET", "/render",
               [&renders](const HttpRequest&, HttpResponse* r) {
                 r->body = "render-" +
                           std::to_string(renders.fetch_add(
                               1, std::memory_order_relaxed));
               },
               cacheable);
  ASSERT_TRUE(server.Start().ok());

  // Same keep-alive connection -> same reactor -> same per-reactor cache.
  const int fd = ConnectTo(server.port());
  SendWire(fd, Request("GET", "/render?k=1&b=2"));
  const OneResponse miss = ReadOne(fd);
  // Equivalent query spelled differently: reordered keys, escaped digit.
  SendWire(fd, Request("GET", "/render?b=%32&k=1"));
  const OneResponse hit = ReadOne(fd);
  ASSERT_TRUE(miss.ok && hit.ok);
  EXPECT_EQ(miss.body, "render-0");
  // Byte-identical replay of the first render: the handler never ran.
  EXPECT_EQ(hit.wire, miss.wire);
  EXPECT_EQ(renders.load(), 1);

  // no-cache bypasses: a fresh render, and the cache entry is untouched.
  SendWire(fd, Request("GET", "/render?k=1&b=2", "Cache-Control: no-cache\r\n"));
  const OneResponse bypass = ReadOne(fd);
  ASSERT_TRUE(bypass.ok);
  EXPECT_EQ(bypass.body, "render-1");
  SendWire(fd, Request("GET", "/render?k=1&b=2"));
  EXPECT_EQ(ReadOne(fd).wire, miss.wire);

  // Epoch swap: the cached bytes must not survive.
  epoch.store(2);
  SendWire(fd, Request("GET", "/render?k=1&b=2"));
  const OneResponse fresh = ReadOne(fd);
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(fresh.body, "render-2");
  // And the new epoch caches again.
  SendWire(fd, Request("GET", "/render?k=1&b=2", "Connection: close\r\n"));
  // The close request has a different cache key (the wire embeds the
  // Connection header), so it renders rather than replaying.
  const OneResponse closing = ReadOne(fd);
  ASSERT_TRUE(closing.ok);
  EXPECT_EQ(closing.body, "render-3");
  close(fd);

  const HttpServer::ServerStats stats = server.Stats();
  EXPECT_GE(stats.cache_hits, 2);
  EXPECT_GE(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_bypass, 1);
  EXPECT_GE(stats.cache_invalidations, 1);
  server.Shutdown();
}

TEST(ReactorServerTest, UnsettledEpochForcesHandlerToRun) {
  HttpServerOptions options;
  options.reactors = 1;
  HttpServer server(options);
  std::atomic<bool> settled{false};
  std::atomic<int> renders{0};
  RouteOptions cacheable;
  cacheable.scoped_epoch = [&settled](const HttpRequest&)
      -> std::optional<RouteOptions::ScopedEpoch> {
    if (!settled.load()) return std::nullopt;
    return RouteOptions::ScopedEpoch{"r", 5};
  };
  server.Route("GET", "/r",
               [&renders](const HttpRequest&, HttpResponse* r) {
                 r->body = std::to_string(
                     renders.fetch_add(1, std::memory_order_relaxed));
               },
               cacheable);
  ASSERT_TRUE(server.Start().ok());

  // Unsettled epoch: every request renders (the handler is what refreshes
  // the underlying snapshot in production, so it MUST run).
  EXPECT_EQ(FetchOnce(server.port(), "/r").body, "0");
  EXPECT_EQ(FetchOnce(server.port(), "/r").body, "1");
  const HttpServer::ServerStats before = server.Stats();
  EXPECT_EQ(before.cache_hits, 0);
  EXPECT_EQ(before.cache_misses, 2);

  // Settled: second fetch replays the first's bytes.
  settled.store(true);
  const OneResponse a = FetchOnce(server.port(), "/r");
  const OneResponse b = FetchOnce(server.port(), "/r");
  EXPECT_EQ(a.wire, b.wire);
  EXPECT_EQ(renders.load(), 3);
  server.Shutdown();
}

TEST(ReactorStress, CachedReadsRaceEpochBumps) {
  HttpServerOptions options;
  options.reactors = 4;
  options.workers = 2;
  HttpServer server(options);

  std::atomic<std::uint64_t> epoch{1};
  RouteOptions cacheable;
  cacheable.scoped_epoch = [&epoch](const HttpRequest&) {
    return std::optional<RouteOptions::ScopedEpoch>({"e", epoch.load()});
  };
  // The body embeds the epoch observed by the handler; a correctly
  // bracketed cache can only replay bytes whose embedded epoch matches
  // the epoch the entry is stored under, so a reader can never observe a
  // NEWER epoch's key serving an OLDER epoch's bytes after a bump it
  // itself performed earlier (writes and reads here are sequential per
  // client thread; cross-thread mixes are exercised for TSan, not
  // asserted on).
  server.Route("GET", "/e",
               [&epoch](const HttpRequest&, HttpResponse* r) {
                 r->body = std::to_string(epoch.load());
               },
               cacheable);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&server, &failures, &stop] {
      const int fd = ConnectTo(server.port());
      for (int i = 0; i < 50 && !stop.load(std::memory_order_relaxed); ++i) {
        SendWire(fd, Request("GET", "/e"));
        const OneResponse r = ReadOne(fd);
        if (!r.ok || r.status != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      close(fd);
    });
  }
  std::thread bumper([&epoch, &stop] {
    for (int i = 0; i < 200 && !stop.load(std::memory_order_relaxed); ++i) {
      epoch.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  bumper.join();

  EXPECT_EQ(failures.load(), 0);
  server.Shutdown();
}

}  // namespace
}  // namespace aqua
