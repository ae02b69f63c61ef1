// Regression pin for the parked-write path: a client that stops reading
// must never stall the reactor.  The server runs with a deliberately tiny
// listener SO_SNDBUF so a ~300KB response cannot fit in the socket buffer;
// the old reactor poll-spun inside a blocking writev until the peer
// drained, freezing every other connection on the reactor.  The IoBackend
// contract parks the unsent tail instead (EPOLLOUT rearm), so a concurrent
// fast client keeps getting answers while the slow reader crawls — and the
// slow reader still receives every byte, verbatim.

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "server/server.h"

namespace aqua {
namespace {

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

void SendAll(int fd, const std::string& wire) {
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
}

/// Reads until EOF (Connection: close responses) with a generous deadline.
std::string ReadToEof(int fd, int timeout_ms = 30000) {
  std::string out;
  char buf[8192];
  for (;;) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, timeout_ms) <= 0) break;
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(SlowReaderTest, ParkedWriteDoesNotStallTheReactor) {
  // One reactor, so the slow and fast connections share it: any blocking
  // write on the slow connection would freeze the fast one.
  HttpServerOptions options;
  options.reactors = 1;
  options.workers = 2;
  options.sndbuf = 4096;  // a ~300KB response cannot fit: the tail parks
  HttpServer server(options);

  std::string big(300 * 1024, 'x');
  for (std::size_t i = 0; i < big.size(); i += 101) big[i] = 'A' + (i % 26);
  server.Route("GET", "/big",
               [&big](const HttpRequest&, HttpResponse* response) {
                 response->content_type = "text/plain";
                 response->body = big;
               });
  server.Route("GET", "/small", [](const HttpRequest&, HttpResponse* response) {
    response->content_type = "text/plain";
    response->body = "ok";
  });
  ASSERT_TRUE(server.Start().ok());

  const std::string big_request =
      "GET /big HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  const std::string small_request =
      "GET /small HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";

  // Reference bytes from a well-behaved client.
  const int ref_fd = ConnectTo(server.port());
  SendAll(ref_fd, big_request);
  const std::string expected = ReadToEof(ref_fd);
  close(ref_fd);
  ASSERT_GT(expected.size(), big.size());

  // The slow reader requests the big response and then refuses to read:
  // the socket buffers fill and the server must park the rest.
  const int slow_fd = ConnectTo(server.port());
  SendAll(slow_fd, big_request);
  // Give the response time to reach (and fill) the socket buffers.
  usleep(200 * 1000);

  // With the slow connection wedged mid-response, a fast client on the
  // same reactor must still be served promptly.
  const auto fast_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    const int fd = ConnectTo(server.port());
    SendAll(fd, small_request);
    const std::string reply = ReadToEof(fd);
    close(fd);
    ASSERT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << "round " << i;
    ASSERT_NE(reply.find("ok"), std::string::npos) << "round " << i;
  }
  const auto fast_elapsed = std::chrono::steady_clock::now() - fast_start;
  // 50 loopback round trips take milliseconds; the old blocking reactor
  // would sit in writev until the slow reader drained (i.e. forever here).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(fast_elapsed)
                .count(),
            20);

  // Now crawl: a few hundred 1-byte reads first (the pathological client),
  // then drain normally, and require the verbatim response bytes.
  std::string got;
  char byte;
  for (int i = 0; i < 256; ++i) {
    struct pollfd pfd = {slow_fd, POLLIN, 0};
    ASSERT_GT(poll(&pfd, 1, 30000), 0) << "slow reader starved at byte " << i;
    const ssize_t n = read(slow_fd, &byte, 1);
    ASSERT_EQ(n, 1) << "short read at byte " << i;
    got.push_back(byte);
  }
  got += ReadToEof(slow_fd);
  close(slow_fd);
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_EQ(got, expected) << "parked-write bytes diverged";

  // The tail really did park (the whole point of the scenario).
  const HttpServer::ServerStats stats = server.Stats();
  EXPECT_GE(stats.io.copied_sends + stats.io.zero_copy_sends, 1);

  server.Shutdown();
}

TEST(SlowReaderTest, ShutdownDoesNotHangOnAParkedSend) {
  HttpServerOptions options;
  options.reactors = 1;
  options.workers = 1;
  options.sndbuf = 4096;
  HttpServer server(options);
  const std::string big(256 * 1024, 'y');
  server.Route("GET", "/big",
               [&big](const HttpRequest&, HttpResponse* response) {
                 response->body = big;
               });
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, "GET /big HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  usleep(200 * 1000);  // response parks against the unread socket

  // Shutdown must complete despite the parked send (bounded drain grace),
  // not wait for a reader that never comes.
  const auto start = std::chrono::steady_clock::now();
  server.Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 30);
  close(fd);
}

}  // namespace
}  // namespace aqua
