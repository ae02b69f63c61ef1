// Shared helpers for end-to-end tests that spawn the real aqua_serve
// binary (injected by CMake as AQUA_SERVE_BINARY): process spawning with
// port discovery, a minimal raw-socket HTTP/1.1 client, and response
// normalization.  Tests that run the server in-process use the client
// and normalization only; ServerProcess needs AQUA_SERVE_BINARY.
#ifndef AQUA_TESTS_SERVER_E2E_UTIL_H_
#define AQUA_TESTS_SERVER_E2E_UTIL_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace aqua::e2e {

#ifdef AQUA_SERVE_BINARY
/// A spawned aqua_serve process: fork/exec with stdout piped back so the
/// test can read the "listening on ADDR:PORT" line.
class ServerProcess {
 public:
  ServerProcess(std::vector<std::string> extra_args) {
    Spawn(std::move(extra_args));  // ASSERTs need a void function
  }

  void Spawn(std::vector<std::string> extra_args) {
    int out_pipe[2];
    ASSERT_EQ(pipe(out_pipe), 0);
    pid_ = fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      dup2(out_pipe[1], STDOUT_FILENO);
      close(out_pipe[0]);
      close(out_pipe[1]);
      std::vector<std::string> args = {AQUA_SERVE_BINARY, "--port", "0"};
      for (auto& a : extra_args) args.push_back(std::move(a));
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      std::perror("execv aqua_serve");
      _exit(127);
    }
    close(out_pipe[1]);
    stdout_fd_ = out_pipe[0];
    ReadPort();
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) close(stdout_fd_);
  }

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM, then waits; returns the exit status (-1 on abnormal exit).
  int TerminateAndWait() {
    kill(pid_, SIGTERM);
    int wstatus = 0;
    waitpid(pid_, &wstatus, 0);
    const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    pid_ = -1;
    return code;
  }

  /// SIGKILL and reap — the fault-injection crash: no shutdown handler
  /// runs, no buffered state is flushed, the process is simply gone.
  void KillNow() {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
    if (stdout_fd_ >= 0) {
      close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

 private:
  void ReadPort() {
    // Read stdout until the listening line appears (the server prints and
    // flushes it immediately after binding).
    std::string line;
    char c;
    const std::int64_t deadline_ms = 10000;
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    while (line.find('\n') == std::string::npos) {
      ASSERT_GT(poll(&pfd, 1, static_cast<int>(deadline_ms)), 0)
          << "server did not print its port";
      const ssize_t n = read(stdout_fd_, &c, 1);
      ASSERT_GT(n, 0) << "server exited before printing its port";
      line.push_back(c);
    }
    const std::size_t colon = line.rfind(':');
    ASSERT_NE(colon, std::string::npos) << line;
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
    ASSERT_GT(port_, 0) << line;
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};
#endif  // AQUA_SERVE_BINARY

/// A raw HTTP/1.1 response: status code + body.
struct RawResponse {
  int status = 0;
  std::string body;
};

inline int ConnectTo(std::uint16_t port) {
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

inline void SendRequest(int fd, const std::string& method,
                        const std::string& target,
                        const std::string& body = "") {
  std::string wire = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
  if (!body.empty()) {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "Connection: close\r\n\r\n" + body;
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
}

inline RawResponse ReadResponse(int fd) {
  std::string raw;
  char buf[4096];
  for (;;) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, 15000) <= 0) break;  // hung server: fail below
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  RawResponse response;
  if (raw.rfind("HTTP/1.1 ", 0) == 0) {
    response.status = std::stoi(raw.substr(9, 3));
  }
  const std::size_t blank = raw.find("\r\n\r\n");
  if (blank != std::string::npos) response.body = raw.substr(blank + 4);
  return response;
}

/// Builds one HTTP/1.1 request without a Connection header (keep-alive by
/// default), for pipelined / multi-request connections.
inline std::string KeepAliveRequest(const std::string& method,
                                    const std::string& target,
                                    const std::string& extra_headers = "",
                                    const std::string& body = "") {
  std::string wire = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
  if (!body.empty()) {
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  return wire + extra_headers + "\r\n" + body;
}

inline void SendRaw(int fd, const std::string& wire) {
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
}

/// One complete response off a keep-alive connection, framed by
/// Content-Length; `wire` keeps the verbatim bytes (status line, headers,
/// body) so tests can assert byte-identical cached replays.
struct FramedResponse {
  int status = 0;
  std::string wire;
  std::string body;
  bool ok = false;
};

/// `carry` holds bytes read past the returned response's frame (pipelined
/// bursts can land several responses in one read); pass the same string
/// for every read off one connection.
inline FramedResponse ReadOneResponse(int fd, std::string* carry = nullptr) {
  FramedResponse response;
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
  const std::string key = "content-length:";
  std::size_t content_length = 0;
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

inline RawResponse Fetch(std::uint16_t port, const std::string& target) {
  const int fd = ConnectTo(port);
  SendRequest(fd, "GET", target);
  RawResponse response = ReadResponse(fd);
  close(fd);
  return response;
}

inline RawResponse Post(std::uint16_t port, const std::string& target,
                        const std::string& body) {
  const int fd = ConnectTo(port);
  SendRequest(fd, "POST", target, body);
  RawResponse response = ReadResponse(fd);
  close(fd);
  return response;
}

/// Removes the volatile `"response_ns":<digits>` metric so two responses to
/// the same query compare equal.
inline std::string StripResponseNs(std::string body) {
  const std::string key = "\"response_ns\":";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return body;
  std::size_t end = at + key.size();
  while (end < body.size() &&
         (std::isdigit(static_cast<unsigned char>(body[end])) ||
          body[end] == '-')) {
    ++end;
  }
  // Also swallow one adjacent comma to keep the JSON shape irrelevant.
  if (at > 0 && body[at - 1] == ',') {
    return body.substr(0, at - 1) + body.substr(end);
  }
  return body.substr(0, at) + body.substr(end);
}

}  // namespace aqua::e2e

#endif  // AQUA_TESTS_SERVER_E2E_UTIL_H_
