// Shared keep-alive HTTP/1.1 load client for serving benches
// (http_throughput, scaling_matrix): raw loopback sockets, Content-Length
// framing, per-request latency samples, optional client-thread pinning.
#ifndef AQUA_BENCH_HTTP_CLIENT_H_
#define AQUA_BENCH_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

// Client threads pin with the same helper the server's --pin-cores uses
// (aqua::PinSelfToCpu), found by unqualified lookup from aqua::bench.
#include "common/cpu_affinity.h"

namespace aqua {
namespace bench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int ConnectTo(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

inline bool SendAll(int fd, const std::string& wire) {
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = write(fd, wire.data() + off, wire.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one Content-Length-framed response; `carry` holds overshoot
/// bytes between calls on the same connection.  Returns the status code,
/// or 0 on socket error/timeout; the body lands in `*body` when non-null.
inline int ReadOneBody(int fd, std::string* carry, std::string* body) {
  std::string raw = std::move(*carry);
  carry->clear();
  char buf[8192];
  std::size_t blank = raw.find("\r\n\r\n");
  while (blank == std::string::npos) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, 15000) <= 0) return 0;
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) return 0;
    raw.append(buf, static_cast<std::size_t>(n));
    blank = raw.find("\r\n\r\n");
  }
  std::size_t content_length = 0;
  const std::string key = "content-length:";
  for (std::size_t at = 0; at < blank;) {
    const std::size_t eol = raw.find("\r\n", at);
    std::string line = raw.substr(at, eol - at);
    for (char& c : line) c = static_cast<char>(std::tolower(c));
    if (line.rfind(key, 0) == 0) {
      content_length = std::stoul(line.substr(key.size()));
    }
    at = eol + 2;
  }
  const std::size_t total = blank + 4 + content_length;
  while (raw.size() < total) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, 15000) <= 0) return 0;
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) return 0;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  if (body != nullptr) *body = raw.substr(blank + 4, content_length);
  *carry = raw.substr(total);
  return raw.rfind("HTTP/1.1 ", 0) == 0 ? std::stoi(raw.substr(9, 3)) : 0;
}

inline int ReadOneStatus(int fd, std::string* carry) {
  return ReadOneBody(fd, carry, nullptr);
}

struct LoadResult {
  std::vector<std::int64_t> samples_ns;
  double elapsed_s = 0.0;
  std::int64_t errors = 0;  // socket failures / non-2xx
  std::int64_t status_5xx = 0;
};

/// Drives `requests_per_thread` lockstep keep-alive GETs per thread and
/// merges the per-request latency samples.  `pin_offset >= 0` pins client
/// thread t to CPU (pin_offset + t), modulo online CPUs — offset past the
/// server's reactors so client and reactor threads contend for distinct
/// cores when enough exist.  Each write carries `depth` pipelined
/// requests; every response's sample runs from that write to its arrival.
inline LoadResult DriveLoad(std::uint16_t port,
                            const std::vector<std::string>& paths,
                            int threads, int requests_per_thread,
                            int pin_offset = -1, int depth = 1) {
  std::vector<std::vector<std::int64_t>> samples(
      static_cast<std::size_t>(threads));
  std::vector<std::int64_t> errors(static_cast<std::size_t>(threads), 0);
  std::vector<std::int64_t> fives(static_cast<std::size_t>(threads), 0);
  const std::int64_t start = NowNs();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      if (pin_offset >= 0) {
        PinSelfToCpu(static_cast<std::size_t>(pin_offset + t));
      }
      const int fd = ConnectTo(port);
      if (fd < 0) {
        errors[static_cast<std::size_t>(t)] = requests_per_thread;
        return;
      }
      std::string carry;
      auto& mine = samples[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(requests_per_thread));
      bool dead = false;
      for (int i = 0; i < requests_per_thread && !dead; i += depth) {
        const int burst = std::min(depth, requests_per_thread - i);
        std::string wire;
        for (int k = 0; k < burst; ++k) {
          wire += "GET " +
                  paths[static_cast<std::size_t>(i + k) % paths.size()] +
                  " HTTP/1.1\r\nHost: b\r\n\r\n";
        }
        const std::int64_t begin = NowNs();
        if (!SendAll(fd, wire)) {
          ++errors[static_cast<std::size_t>(t)];
          break;
        }
        for (int k = 0; k < burst && !dead; ++k) {
          const int status = ReadOneStatus(fd, &carry);
          mine.push_back(NowNs() - begin);
          if (status >= 500) ++fives[static_cast<std::size_t>(t)];
          if (status < 200 || status >= 300) {
            ++errors[static_cast<std::size_t>(t)];
            dead = status == 0;  // dead socket
          }
        }
      }
      close(fd);
    });
  }
  for (std::thread& c : clients) c.join();

  LoadResult result;
  result.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (int t = 0; t < threads; ++t) {
    auto& mine = samples[static_cast<std::size_t>(t)];
    result.samples_ns.insert(result.samples_ns.end(), mine.begin(),
                             mine.end());
    result.errors += errors[static_cast<std::size_t>(t)];
    result.status_5xx += fives[static_cast<std::size_t>(t)];
  }
  return result;
}

}  // namespace bench
}  // namespace aqua

#endif  // AQUA_BENCH_HTTP_CLIENT_H_
