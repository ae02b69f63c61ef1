// perfbench_loadgen: the benchmark's load generator.
//
// One process; its one working thread is pinned to the generator CPU (its
// other threads only keep the server CPUs from halting, see KeepAwake).  It
// spawns a fresh aqua_serve per set-up (pinned to the server CPUs), preloads
// it over HTTP, places the last server's threads by role on the server CPUs
// (SplitServerThreads), drives the workload's open-loop query schedule and its
// ingest (an open-loop trickle, or a closed-loop bulk load on `firehose`),
// reads the server's CPU clock, /stats and /proc at the window edges, waits
// until a freshness probe shows the last ingest batch, asks the audit
// queries and stops the server.  It writes raw records into --out; run.py
// turns them into metrics and checks them.  Nothing here interprets latency
// percentiles or answer quality: that math lives in bench_lib.py, where it
// is tested.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --server PATH
//                    --out DIR [--server-cpus 0,1,2] [--generator-cpu 3]
//   perfbench_loadgen --workload NAME --seed N --seconds S --out DIR
//                    --open-loop-port PORT
//       (drives only the workload's open-loop query schedule, through the
//        same QuerySchedule a run uses, at an existing server; the
//        benchmark's own tests point it at a fake server that stalls)
//   perfbench_loadgen --split-threads PID --server-cpus 0,1
//       (places process PID's threads as a run places the server's, with
//        SplitServerThreads, and prints the split; the tests use it on a
//        fake server process)

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <dirent.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The running aqua_serve, if any: stopped on every exit path.
pid_t g_server_pid = -1;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", message.c_str());
  if (g_server_pid > 0) {
    kill(g_server_pid, SIGKILL);
    waitpid(g_server_pid, nullptr, 0);
  }
  std::exit(1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Environment probes.

/// CPU time of every thread of `pid`, in ns (schedstat's on-CPU time).
std::int64_t ProcessCpuNs(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return -1;
  std::int64_t total = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const std::string s = ReadFile(dir + "/" + e->d_name + "/schedstat");
    total += std::strtoll(s.c_str(), nullptr, 10);
  }
  closedir(d);
  return total;
}

/// Host steal ticks from the aggregate cpu line of /proc/stat.
std::int64_t StealTicks() {
  const std::string s = ReadFile("/proc/stat");
  std::istringstream in(s);
  std::string cpu;
  std::int64_t f[8] = {};
  in >> cpu;
  for (std::int64_t& x : f) in >> x;
  return f[7];
}

std::int64_t VmHwmKb(pid_t pid) {
  const std::string s = ReadFile("/proc/" + std::to_string(pid) + "/status");
  const std::size_t at = s.find("VmHWM:");
  if (at == std::string::npos) return -1;
  return std::strtoll(s.c_str() + at + 6, nullptr, 10);
}

/// A fixed integer kernel; its time tracks how fast this CPU runs now.
std::int64_t CalibrationNs() {
  std::vector<std::int64_t> times;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t start = NowNs();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 2000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x2545f4914f6cdd1dULL;
    }
    asm volatile("" : : "r"(x));
    times.push_back(NowNs() - start);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

void PinSelf(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Keeps CPUs from halting while it lives: one spinning thread pinned to
/// each CPU at SCHED_IDLE priority, which a waking server thread preempts
/// at once.  On a virtual machine a request that wakes a halted vCPU waits
/// until the host runs that vCPU again.  The host counts that wait as
/// steal, and with the host's load it moved dashboard's query p50 between
/// 20 and 43 us over five runs on a 4-vCPU VM; with the server CPUs kept
/// awake it stays small.  The spin loop has no pause instruction, which a
/// hypervisor may take as a spinlock and deschedule.
class KeepAwake {
 public:
  explicit KeepAwake(const std::vector<int>& cpus) {
    for (int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        PinSelf(cpu);
        sched_param param{};
        sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};


// ---------------------------------------------------------------------------
// HTTP client: nonblocking keep-alive connections, pipelined requests,
// responses matched in order.

struct Response {
  int status = 0;
  std::string_view body;
};

enum class Tag : std::uint8_t { kQuery, kProbe, kIngest, kAux };

struct Pending {
  Tag tag = Tag::kAux;
  std::uint32_t index = 0;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  /// Byte offset in the connection's output at which this request ends:
  /// its send time is when the socket has taken that byte.
  std::uint64_t end_offset = 0;
};

class Client;

struct Conn {
  int fd = -1;
  bool dead = false;
  std::string out;
  std::size_t out_pos = 0;
  /// Total bytes ever queued / written (for send-time stamping).
  std::uint64_t queued = 0;
  std::uint64_t written = 0;
  std::string in;
  std::size_t in_pos = 0;
  std::deque<Pending> pending;
  bool want_out = false;
};

class Client {
 public:
  using Handler = std::function<void(int conn, const Pending&, std::int64_t,
                                     const Response*)>;

  explicit Client(std::uint16_t port) : port_(port) {
    epoll_fd_ = epoll_create1(0);
  }
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
    close(epoll_fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  int Open() {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
        errno != EINPROGRESS) {
      Die("connect failed");
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof one);
    conns_.emplace_back();
    conns_.back().fd = fd;
    const int id = static_cast<int>(conns_.size() - 1);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u32 = static_cast<std::uint32_t>(id);
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[id].want_out = true;
    return id;
  }

  /// Queues one request without writing it; Flush() hands queued requests
  /// to the socket in one write.  The send time is stamped once the socket
  /// took the request's last byte.
  void Queue(int id, std::string_view bytes, Pending pending) {
    Conn& c = conns_[id];
    if (c.dead) {
      if (handler_) handler_(id, pending, NowNs(), nullptr);
      return;
    }
    c.out.append(bytes);
    c.queued += bytes.size();
    pending.end_offset = c.queued;
    pending.sent = 0;
    c.pending.push_back(pending);
  }

  void Send(int id, std::string_view bytes, Pending pending) {
    Queue(id, bytes, pending);
    Flush(id);
  }

  void Flush(int id) {
    Conn& c = conns_[id];
    if (c.dead) return;
    while (c.out_pos < c.out.size()) {
      const ssize_t w =
          ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                 MSG_NOSIGNAL);
      if (w > 0) {
        c.out_pos += static_cast<std::size_t>(w);
        c.written += static_cast<std::uint64_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (w < 0 && errno == EINTR) continue;
      Kill(id);
      return;
    }
    const std::int64_t now = NowNs();
    for (Pending& p : c.pending) {
      if (p.end_offset > c.written) break;
      if (p.sent == 0) p.sent = now;
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
    const bool want = c.out_pos < c.out.size();
    if (want != c.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
      ev.data.u32 = static_cast<std::uint32_t>(id);
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_out = want;
    }
  }

  std::size_t Outstanding(int id) const { return conns_[id].pending.size(); }
  std::size_t TotalOutstanding() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  /// Waits up to `timeout_ns` for socket events and dispatches responses.
  void Poll(std::int64_t timeout_ns) {
    epoll_event events[16];
    timespec ts{};
    if (timeout_ns < 0) timeout_ns = 0;
    ts.tv_sec = timeout_ns / 1000000000;
    ts.tv_nsec = timeout_ns % 1000000000;
    const int n = epoll_pwait2(epoll_fd_, events, 16, &ts, nullptr);
    for (int i = 0; i < n; ++i) {
      const int id = static_cast<int>(events[i].data.u32);
      if (events[i].events & EPOLLOUT) Flush(id);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Read(id);
    }
  }

  /// Polls until every connection has no outstanding request, or the
  /// deadline passes (then the rest fail).
  void Drain(std::int64_t deadline_ns) {
    while (TotalOutstanding() > 0 && NowNs() < deadline_ns) Poll(1000000);
    for (std::size_t id = 0; id < conns_.size(); ++id) {
      if (!conns_[id].pending.empty()) Kill(static_cast<int>(id));
    }
  }

 private:
  /// Reads what the socket holds.  A response's completion time is the
  /// kernel's receive timestamp of the last bytes read with it, so a
  /// generator that was slow to read does not stretch server latency.
  void Read(int id) {
    Conn& c = conns_[id];
    char buf[65536];
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
    for (;;) {
      iovec iov{buf, sizeof buf};
      msghdr msg{};
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = control;
      msg.msg_controllen = sizeof control;
      const ssize_t r = ::recvmsg(c.fd, &msg, 0);
      if (r > 0) {
        c.in.append(buf, static_cast<std::size_t>(r));
        Parse(id, ArrivalNs(msg));
        if (static_cast<std::size_t>(r) < sizeof buf) break;
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (r < 0 && errno == EINTR) continue;
      Kill(id);
      return;
    }
  }

  /// The SCM_TIMESTAMPNS receive time (CLOCK_REALTIME) on the monotonic
  /// clock the schedule uses; now when the kernel gave none.
  static std::int64_t ArrivalNs(const msghdr& msg) {
    const std::int64_t now = NowNs();
    for (const cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
         cm = CMSG_NXTHDR(const_cast<msghdr*>(&msg), const_cast<cmsghdr*>(cm))) {
      if (cm->cmsg_level != SOL_SOCKET || cm->cmsg_type != SCM_TIMESTAMPNS) {
        continue;
      }
      timespec ts;
      std::memcpy(&ts, CMSG_DATA(cm), sizeof ts);
      timespec real;
      clock_gettime(CLOCK_REALTIME, &real);
      const std::int64_t age =
          (real.tv_sec - ts.tv_sec) * 1000000000LL + (real.tv_nsec - ts.tv_nsec);
      return age >= 0 ? now - age : now;
    }
    return now;
  }

  void Parse(int id, std::int64_t now) {
    Conn& c = conns_[id];
    for (;;) {
      const std::string_view view(c.in.data() + c.in_pos,
                                  c.in.size() - c.in_pos);
      const std::size_t head_end = view.find("\r\n\r\n");
      if (head_end == std::string_view::npos) break;
      const std::string_view head = view.substr(0, head_end);
      std::size_t length = 0;
      const std::size_t cl = head.find("Content-Length:");
      if (cl != std::string_view::npos) {
        length = std::strtoull(head.data() + cl + 15, nullptr, 10);
      }
      if (view.size() < head_end + 4 + length) break;
      Response response;
      if (head.size() >= 12) {
        std::from_chars(head.data() + 9, head.data() + 12, response.status);
      }
      response.body = view.substr(head_end + 4, length);
      if (c.pending.empty()) {
        c.in_pos += head_end + 4 + length;
        continue;
      }
      Pending p = c.pending.front();
      c.pending.pop_front();
      if (p.sent == 0) p.sent = now;
      c.in_pos += head_end + 4 + length;
      if (handler_) handler_(id, p, now, &response);
    }
    if (c.in_pos == c.in.size()) {
      c.in.clear();
      c.in_pos = 0;
    } else if (c.in_pos > (1 << 20)) {
      c.in.erase(0, c.in_pos);
      c.in_pos = 0;
    }
  }

  void Kill(int id) {
    Conn& c = conns_[id];
    if (!c.dead) {
      c.dead = true;
      epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    }
    const std::int64_t now = NowNs();
    while (!c.pending.empty()) {
      Pending p = c.pending.front();
      c.pending.pop_front();
      if (handler_) handler_(id, p, now, nullptr);
    }
  }

  std::uint16_t port_;
  int epoll_fd_ = -1;
  std::deque<Conn> conns_;
  Handler handler_;
};

std::string GetRequest(std::string_view target) {
  std::string r = "GET ";
  r.append(target);
  r.append(" HTTP/1.1\r\nHost: bench\r\n\r\n");
  return r;
}

std::string JsonArray(const std::vector<Value>& values) {
  std::string body;
  body.reserve(values.size() * 8 + 2);
  body.push_back('[');
  char buf[24];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body.push_back(',');
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, values[i]);
    body.append(buf, end);
  }
  body.push_back(']');
  return body;
}

std::string PostRequest(std::string_view path, std::string_view body) {
  std::string r = "POST ";
  r.append(path);
  r.append(" HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
           "Content-Length: ");
  r.append(std::to_string(body.size()));
  r.append("\r\n\r\n");
  r.append(body);
  return r;
}

double JsonNumber(std::string_view body, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern.append("\":");
  const std::size_t at = body.find(pattern);
  if (at == std::string_view::npos) return NAN;
  return std::strtod(body.data() + at + pattern.size(), nullptr);
}

bool MethodNone(std::string_view body) {
  return body.find("\"method\":\"none\"") != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// The open-loop query schedule.

/// Sends a workload's query slots open loop: each leaves when due, whatever
/// is outstanding, round robin over the query connections; a probe slot is
/// one pipelined burst of the probe values.  A run's Traffic() and the
/// timing test mode (--open-loop-port) both drive it through Step(), so the
/// benchmark's tests cover the loop a run uses.
class QuerySchedule {
 public:
  QuerySchedule(Client& client, std::vector<int> conns,
                const WorkloadPlan& plan)
      : client_(client), conns_(std::move(conns)), slots_(plan.slots) {
    for (const std::string& q : plan.queries) requests_.push_back(GetRequest(q));
    for (Value p : kProbeValues) {
      probe_requests_.push_back(
          GetRequest("/frequency?value=" + std::to_string(p)));
    }
  }

  /// Slot due times count from `t0`.
  void Start(std::int64_t t0) { t0_ = t0; }
  bool Done() const { return next_ >= slots_.size(); }

  /// Sends every slot due by now, then waits for responses until the next
  /// slot is due or `wake`, whichever comes first.  It sleeps only while
  /// that is far off: a timer wake-up can be hundreds of microseconds late,
  /// which would make the generator, not the server, set the latency.  Near
  /// a due time it polls without blocking, on the generator's own CPU.
  void Step(std::int64_t wake) {
    const std::int64_t now = NowNs();
    while (!Done() && Due(next_) <= now) {
      const Slot& slot = slots_[next_];
      const std::int64_t due = Due(next_++);
      const int conn = conns_[rr_++ % conns_.size()];
      if (slot.probe) {
        SendProbeBurst(conn, due);
      } else {
        Pending p;
        p.tag = Tag::kQuery;
        p.index = slot.query;
        p.due = due;
        client_.Send(conn, requests_[slot.query], p);
      }
    }
    if (!Done()) wake = std::min(wake, Due(next_));
    const std::int64_t slack = wake - NowNs();
    client_.Poll(slack > 2'000'000 ? slack - 1'000'000 : 0);
  }

  /// Queues the probe requests of one burst and writes them at once, so the
  /// server answers them back to back from one epoch.  Pending::index is
  /// burst * kProbes + probe.
  void SendProbeBurst(int conn, std::int64_t due) {
    const std::uint32_t burst = next_burst_++;
    for (std::size_t i = 0; i < kProbes; ++i) {
      Pending p;
      p.tag = Tag::kProbe;
      p.index = static_cast<std::uint32_t>(burst * kProbes + i);
      p.due = due;
      client_.Queue(conn, probe_requests_[i], p);
    }
    client_.Flush(conn);
  }

 private:
  std::int64_t Due(std::size_t i) const {
    return t0_ + static_cast<std::int64_t>(slots_[i].due_s * 1e9);
  }

  Client& client_;
  std::vector<int> conns_;
  const std::vector<Slot>& slots_;
  std::vector<std::string> requests_;
  std::vector<std::string> probe_requests_;
  std::int64_t t0_ = 0;
  std::size_t next_ = 0;
  std::size_t rr_ = 0;
  std::uint32_t next_burst_ = 0;
};

/// One answered (or failed) query or probe request.
struct QueryRecord {
  std::int64_t due, sent, done;
  std::uint8_t ok, probe;
};

/// queries.csv: due, sent, done (ns from `origin`), ok, probe.
void WriteQueries(const std::string& path,
                  const std::vector<QueryRecord>& queries,
                  std::int64_t origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  for (const QueryRecord& q : queries) {
    std::fprintf(f, "%lld,%lld,%lld,%d,%d\n",
                 static_cast<long long>(q.due - origin),
                 static_cast<long long>(q.sent - origin),
                 static_cast<long long>(q.done - origin), q.ok, q.probe);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Server process.

struct Server {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

Server SpawnServer(const std::string& binary,
                   const std::vector<std::string>& flags,
                   const std::vector<int>& cpus, const std::string& err_path) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) Die("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    // The server must not outlive the load generator, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (!cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (int c : cpus) CPU_SET(c, &set);
      sched_setaffinity(0, sizeof set, &set);
    }
    dup2(pipe_fds[1], 1);
    const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (err >= 0) dup2(err, 2);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    std::vector<std::string> args = {binary, "--port", "0"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  g_server_pid = pid;
  close(pipe_fds[1]);
  std::string line;
  char ch;
  while (read(pipe_fds[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
  close(pipe_fds[0]);
  const std::size_t colon = line.rfind(':');
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    Die("server did not start: " + line);
  }
  Server server;
  server.pid = pid;
  server.port = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
  return server;
}

/// How the server's threads were placed on the server CPUs.
struct ThreadSplit {
  std::vector<int> reactor_cpus, other_cpus;
  int reactors = 0, timed = 0, others = 0;
};

/// What an idle server thread is blocked in.
enum class Wait { kOther, kReactor, kTimed };

/// Reads thread `tid`'s wait off /proc/<pid>/task/<tid>/syscall (the
/// syscall number, then its arguments): an IO reactor's epoll_wait or
/// io_uring_enter, a wait that a timer ends (a futex wait with a timeout,
/// as a condition variable's wait_for makes), or anything else.
Wait ThreadWait(pid_t pid, const std::string& tid) {
  std::istringstream in(ReadFile("/proc/" + std::to_string(pid) + "/task/" +
                                 tid + "/syscall"));
  std::string nr_text, uaddr, op, val, timeout;
  in >> nr_text >> uaddr >> op >> val >> timeout;
  if (nr_text.empty() || nr_text[0] < '0' || nr_text[0] > '9') {
    return Wait::kOther;  // "running"
  }
  const long nr = std::strtol(nr_text.c_str(), nullptr, 10);
  switch (nr) {
#ifdef SYS_epoll_wait
    case SYS_epoll_wait:
#endif
#ifdef SYS_epoll_pwait2
    case SYS_epoll_pwait2:
#endif
    case SYS_epoll_pwait:
    case SYS_io_uring_enter:
      return Wait::kReactor;
    case SYS_futex:
      return timeout != "0x0" ? Wait::kTimed : Wait::kOther;
    default:
      return Wait::kOther;
  }
}

/// Places an idle server's threads on the server CPUs: each reactor on a
/// CPU of its own, the timer-driven threads (the refresh pump under
/// `--refresh-mode pump`) on the first reactor's CPU, and every other thread
/// (the request workers, main) on the remaining CPUs.
///
/// Measured on `firehose` on a 4-vCPU VM, where the workers ingest over two
/// connections while the pump settles a fifth of the time: with every
/// thread on every server CPU, a reactor woken by a query while the workers
/// and the pump held all of them waited out a time slice (query p90
/// 0.72 ms).
/// With the reactor alone but the pump on the workers' two CPUs (three busy
/// threads on two CPUs), 19-26% of the queries took over 100 us over six
/// paired seeds, against 11-15% with the pump beside the reactor, which
/// also ingested faster; the reactor's ~1 ms stalls fell from about 30 a
/// second to about 6.  A thread's role is what it was seen waiting in over
/// 50 ms of samples.  Returns an empty split, placing nothing, when there are too
/// few server CPUs or no reactor shows up within a second.
ThreadSplit SplitServerThreads(pid_t pid, const std::vector<int>& cpus) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  const std::int64_t deadline = NowNs() + 1'000'000'000LL;
  std::map<pid_t, Wait> role;
  int samples_with_reactor = 0;
  while (samples_with_reactor < 50) {
    if (cpus.size() < 2 || NowNs() > deadline) return {};
    DIR* d = opendir(dir.c_str());
    if (d == nullptr) return {};
    bool reactor_seen = false;
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      Wait& r = role[std::atoi(e->d_name)];
      const Wait w = ThreadWait(pid, e->d_name);
      if (w == Wait::kReactor || (w == Wait::kTimed && r == Wait::kOther)) {
        r = w;
      }
      reactor_seen |= r == Wait::kReactor;
    }
    closedir(d);
    if (reactor_seen) ++samples_with_reactor;
    usleep(1000);
  }
  std::vector<pid_t> reactors, timed, others;
  for (const auto& [tid, r] : role) {
    (r == Wait::kReactor ? reactors : r == Wait::kTimed ? timed : others)
        .push_back(tid);
  }
  if (reactors.size() >= cpus.size()) return {};
  ThreadSplit split;
  split.reactor_cpus.assign(cpus.begin(), cpus.begin() + reactors.size());
  split.other_cpus.assign(cpus.begin() + reactors.size(), cpus.end());
  split.reactors = static_cast<int>(reactors.size());
  split.timed = static_cast<int>(timed.size());
  split.others = static_cast<int>(others.size());
  auto place = [](pid_t tid, const std::vector<int>& on) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : on) CPU_SET(c, &set);
    sched_setaffinity(tid, sizeof set, &set);
  };
  for (std::size_t i = 0; i < reactors.size(); ++i) {
    place(reactors[i], {split.reactor_cpus[i]});
  }
  for (pid_t tid : timed) place(tid, {split.reactor_cpus[0]});
  for (pid_t tid : others) place(tid, split.other_cpus);
  return split;
}

/// The split as the run records it (summary.json's thread_split).
std::string SplitJson(const ThreadSplit& split) {
  auto list = [](const std::vector<int>& cpus) {
    std::string out = "[";
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      out += (i ? "," : "") + std::to_string(cpus[i]);
    }
    return out + "]";
  };
  return "{\"reactors\":" + std::to_string(split.reactors) +
         ",\"timed\":" + std::to_string(split.timed) +
         ",\"others\":" + std::to_string(split.others) +
         ",\"reactor_cpus\":" + list(split.reactor_cpus) +
         ",\"other_cpus\":" + list(split.other_cpus) + "}";
}

void StopServer(Server& server) {
  if (server.pid <= 0) return;
  kill(server.pid, SIGTERM);
  const std::int64_t deadline = NowNs() + 10'000'000'000LL;
  int status = 0;
  while (waitpid(server.pid, &status, WNOHANG) == 0) {
    if (NowNs() > deadline) {
      kill(server.pid, SIGKILL);
      waitpid(server.pid, &status, 0);
      break;
    }
    usleep(2000);
  }
  server.pid = -1;
  g_server_pid = -1;
}

// ---------------------------------------------------------------------------
// The run.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string server;
  std::string out;
  std::vector<int> server_cpus;
  int generator_cpu = -1;
  int open_loop_port = 0;
  pid_t split_threads = 0;
};

std::vector<int> ParseCpus(const std::string& s) {
  std::vector<int> cpus;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) cpus.push_back(std::atoi(item.c_str()));
  }
  return cpus;
}

std::string IngestPath(const WorkloadPlan& plan, int target) {
  return target == 0 ? "/ingest" : "/attr/" + plan.attrs[target - 1] + "/ingest";
}

/// Set-ups per run: setup_s is their median, and the last server carries
/// on into the traffic.
constexpr int kSetups = 3;

class Run {
 public:
  Run(const Options& options, WorkloadPlan plan)
      : options_(options), plan_(std::move(plan)) {}

  int Execute() {
    PinSelf(options_.generator_cpu);
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    PrepareBodies();
    std::vector<double> setup_s;
    Server server;
    for (int i = 0; i < kSetups; ++i) {
      if (server.pid > 0) StopServer(server);
      ResetCounts();
      const std::int64_t t0 = NowNs();
      server = SpawnServer(options_.server, plan_.server_flags,
                           options_.server_cpus, options_.out + "/server.err");
      Setup(server);
      setup_s.push_back((NowNs() - t0) / 1e9);
    }
    split_ = SplitServerThreads(server.pid, options_.server_cpus);
    {
      // Not during set-up: with spinners running while a server starts and
      // takes its preload, its threads end up packed onto fewer CPUs and
      // stay so (firehose's probe p50 rose from ~60 us to 740-800 us, also
      // when the spinners started only once the server listened).
      const KeepAwake awake(options_.server_cpus);
      calibration_before_ = CalibrationNs();
      Traffic(server);
      calibration_after_ = CalibrationNs();
    }
    Audit(server);
    const std::int64_t vmhwm = VmHwmKb(server.pid);
    StopServer(server);
    WriteRecords(setup_s, vmhwm);
    return 0;
  }

 private:
  void PrepareBodies() {
    for (const auto& batch : plan_.preload) {
      preload_bodies_.push_back(PostRequest("/ingest", JsonArray(batch)));
    }
    for (std::size_t a = 0; a < plan_.attr_preload.size(); ++a) {
      for (const auto& batch : plan_.attr_preload[a]) {
        attr_bodies_.push_back(
            PostRequest(IngestPath(plan_, static_cast<int>(a + 1)),
                        JsonArray(batch)));
        attr_batch_target_.push_back(static_cast<int>(a + 1));
        attr_batch_size_.push_back(static_cast<std::int64_t>(batch.size()));
      }
    }
    for (const auto& batch : plan_.trickle) {
      trickle_bodies_.push_back(
          PostRequest(IngestPath(plan_, batch.target), JsonArray(batch.values)));
    }
    if (plan_.kind == Kind::kFirehose) {
      for (std::int64_t i = 0; i < kFirehosePool; ++i) {
        firehose_pool_.push_back(FirehoseBatch(plan_, i));
        firehose_bodies_.push_back(
            PostRequest("/ingest", JsonArray(firehose_pool_.back())));
      }
    }
  }

  void ResetCounts() {
    counts_.clear();
    acked_values_.assign(plan_.attrs.size() + 1, 0);
  }

  void CountAcked(int target, const std::vector<Value>& values) {
    acked_values_[target] += static_cast<std::int64_t>(values.size());
    if (target != 0) return;
    for (Value v : values) counts_[v]++;
  }

  /// Closed-loop POSTs of `bodies` over `connections` connections.
  void ClosedLoopPost(Client& client, const std::vector<int>& conns,
                      std::size_t n,
                      const std::function<const std::string&(std::size_t)>& body,
                      const std::function<void(std::size_t)>& on_ack) {
    std::size_t next = 0, done = 0;
    bool failed = false;
    client.SetHandler([&](int conn, const Pending& p, std::int64_t,
                          const Response* r) {
      if (r == nullptr || r->status != 200) {
        failed = true;
        return;
      }
      on_ack(p.index);
      ++done;
      if (next < n) {
        Pending q;
        q.tag = Tag::kAux;
        q.index = static_cast<std::uint32_t>(next);
        client.Send(conn, body(next), q);
        ++next;
      }
    });
    for (int conn : conns) {
      if (next >= n) break;
      Pending q;
      q.tag = Tag::kAux;
      q.index = static_cast<std::uint32_t>(next);
      client.Send(conn, body(next), q);
      ++next;
    }
    const std::int64_t deadline = NowNs() + 120'000'000'000LL;
    while (done < n && !failed) {
      if (NowNs() > deadline) Die("preload timed out");
      client.Poll(5'000'000);
    }
    if (failed) Die("a set-up POST failed");
  }

  /// Blocking single GET on `conn`; returns status and copies the body.
  int Get(Client& client, int conn, std::string_view target,
          std::string* body) {
    int status = -1;
    bool done = false;
    client.SetHandler([&](int, const Pending&, std::int64_t,
                          const Response* r) {
      done = true;
      if (r != nullptr) {
        status = r->status;
        if (body != nullptr) body->assign(r->body);
      }
    });
    client.Send(conn, GetRequest(target), Pending{});
    const std::int64_t deadline = NowNs() + 10'000'000'000LL;
    while (!done && NowNs() < deadline) client.Poll(5'000'000);
    return status;
  }

  /// One probe burst's answers, one per probe value.
  struct ProbeReading {
    bool ok = false;
    std::array<double, kProbes> count{};
    std::array<double, kProbes> ci_high{};
    std::array<double, kProbes> sample_points{};
  };

  ProbeReading ReadProbe(const std::vector<std::string>& bodies) {
    ProbeReading reading;
    reading.ok = true;
    for (std::size_t i = 0; i < kProbes; ++i) {
      reading.count[i] = JsonNumber(bodies[i], "ci_low");
      reading.ci_high[i] = JsonNumber(bodies[i], "ci_high");
      reading.sample_points[i] = JsonNumber(bodies[i], "sample_points");
      if (std::isnan(reading.count[i])) reading.ok = false;
    }
    return reading;
  }

  /// Preloads a fresh server and waits until a query answers from an epoch
  /// holding the whole preload.
  void Setup(const Server& server) {
    Client client(server.port);
    const int c0 = client.Open(), c1 = client.Open();
    // The probe seed batch goes first and alone: the probe values must
    // enter the counting sample while its threshold is still 1.
    ClosedLoopPost(
        client, {c0}, 1,
        [&](std::size_t) -> const std::string& { return preload_bodies_[0]; },
        [&](std::size_t) { CountAcked(0, plan_.preload[0]); });
    ClosedLoopPost(
        client, {c0, c1}, preload_bodies_.size() - 1,
        [&](std::size_t i) -> const std::string& {
          return preload_bodies_[i + 1];
        },
        [&](std::size_t i) { CountAcked(0, plan_.preload[i + 1]); });
    if (!attr_bodies_.empty()) {
      ClosedLoopPost(
          client, {c0, c1}, attr_bodies_.size(),
          [&](std::size_t i) -> const std::string& { return attr_bodies_[i]; },
          [&](std::size_t i) {
            acked_values_[attr_batch_target_[i]] += attr_batch_size_[i];
          });
    }
    // The marker goes last, after every other batch was acked.
    if (!PostMarkerAndWait(client, c0, kMarkerValue, kMarkerCount, nullptr)) {
      Die("set-up marker never became visible");
    }
  }

  /// Posts `copies` copies of `value`, a value never sent before, and
  /// polls until an answer counts it: that answer's epoch holds every batch
  /// acked before the marker.  A count of zero means an older epoch, or a
  /// marker the counting sample did not take at all, so the post is retried
  /// twice.  `before_poll`, if set, runs before each poll.
  bool PostMarkerAndWait(Client& client, int conn, Value value,
                         std::int64_t copies,
                         const std::function<void()>& before_poll) {
    const std::vector<Value> marker(static_cast<std::size_t>(copies), value);
    const std::string request = PostRequest("/ingest", JsonArray(marker));
    const std::string query = "/frequency?value=" + std::to_string(value);
    for (int attempt = 0; attempt < 3; ++attempt) {
      ClosedLoopPost(
          client, {conn}, 1,
          [&](std::size_t) -> const std::string& { return request; },
          [&](std::size_t) { CountAcked(0, marker); });
      const std::int64_t deadline = NowNs() + 5'000'000'000LL;
      while (NowNs() < deadline) {
        if (before_poll) before_poll();
        std::string body;
        if (Get(client, conn, query, &body) != 200) return false;
        if (JsonNumber(body, "ci_low") > 0) return true;
        usleep(500);
      }
    }
    return false;
  }

  // Records of the traffic phase.
  struct IngestRecord {
    std::int64_t due = 0, sent = 0, done = 0;
    int target = 0;
    std::int64_t values = 0;
    int probe_copies = 0;
    bool ok = false;
  };
  struct ProbeRecord {
    std::int64_t sent, done;
    ProbeReading reading;
  };

  /// Sends the next bulk-load batch on `conn`, if any is left.
  void SendFirehose(Client& client, int conn, std::size_t slot) {
    if (firehose_sent_ >= plan_.firehose_batches) return;
    const std::size_t pool =
        static_cast<std::size_t>(firehose_sent_++ % kFirehosePool);
    IngestRecord record;
    record.due = NowNs();
    record.values = static_cast<std::int64_t>(firehose_pool_[pool].size());
    record.probe_copies = plan_.firehose_probe_copies;
    ingests_.push_back(record);
    firehose_inflight_[slot] = pool;
    Pending p;
    p.tag = Tag::kIngest;
    p.index = static_cast<std::uint32_t>(ingests_.size() - 1);
    p.due = record.due;
    client.Send(conn, firehose_bodies_[pool], p);
  }

  void Traffic(const Server& server) {
    Client client(server.port);
    const bool firehose = plan_.kind == Kind::kFirehose;
    std::vector<int> query_conns;
    for (int i = 0; i < plan_.query_connections; ++i) {
      query_conns.push_back(client.Open());
    }
    std::vector<int> ingest_conns;
    const int ingest_connections = firehose ? plan_.firehose_connections : 1;
    for (int i = 0; i < ingest_connections; ++i) {
      ingest_conns.push_back(client.Open());
    }
    const int stats_conn = ingest_conns.back();
    QuerySchedule schedule(client, query_conns, plan_);

    // The anchor probe: its epoch holds exactly the preload, so each probe
    // value's true count is kProbeSeedCount.
    {
      std::vector<std::string> b(kProbes);
      for (std::size_t i = 0; i < kProbes; ++i) {
        if (Get(client, query_conns[0],
                "/frequency?value=" + std::to_string(kProbeValues[i]),
                &b[i]) != 200) {
          Die("anchor probe failed");
        }
      }
      anchor_ = ReadProbe(b);
      if (!anchor_.ok) Die("anchor probe unreadable");
    }

    std::unordered_map<std::uint32_t, std::vector<std::string>> burst_bodies;
    std::unordered_map<std::uint32_t, std::int64_t> burst_sent;
    std::int64_t firehose_done = 0;
    bool ingest_failed = false;
    std::string stats_body[2];
    firehose_inflight_.assign(static_cast<std::size_t>(ingest_connections), 0);

    const Client::Handler traffic_handler = [&](int conn, const Pending& p,
                                                std::int64_t now,
                                                const Response* r) {
      const bool ok = r != nullptr && r->status == 200;
      switch (p.tag) {
        case Tag::kQuery: {
          const bool none = ok && MethodNone(r->body);
          method_none_ += none ? 1 : 0;
          queries_.push_back(
              {p.due, p.sent, now, static_cast<std::uint8_t>(ok && !none), 0});
          break;
        }
        case Tag::kProbe: {
          const std::uint32_t burst = p.index / kProbes;
          queries_.push_back(
              {p.due, p.sent, now, static_cast<std::uint8_t>(ok), 1});
          auto& bodies = burst_bodies[burst];
          bodies.push_back(ok ? std::string(r->body) : std::string());
          if (p.index % kProbes == 0) burst_sent[burst] = p.sent;
          if (bodies.size() == kProbes) {
            probes_.push_back({burst_sent[burst], now, ReadProbe(bodies)});
            burst_bodies.erase(burst);
            burst_sent.erase(burst);
          }
          break;
        }
        case Tag::kIngest: {
          IngestRecord& record = ingests_[p.index];
          record.sent = p.sent;
          record.done = now;
          record.ok = ok;
          const std::size_t slot =
              static_cast<std::size_t>(conn - ingest_conns[0]);
          if (ok) {
            CountAcked(record.target,
                       firehose ? firehose_pool_[firehose_inflight_[slot]]
                                : plan_.trickle[trickle_of_[p.index]].values);
          } else {
            ingest_failed = true;
          }
          if (firehose) {
            ++firehose_done;
            if (!ingest_failed) SendFirehose(client, conn, slot);
          }
          break;
        }
        case Tag::kAux:
          if (ok) stats_body[p.index].assign(r->body);
          break;
      }
    };
    client.SetHandler(traffic_handler);

    const std::int64_t t0 = NowNs();
    schedule.Start(t0);
    const std::int64_t window_start =
        t0 + static_cast<std::int64_t>(plan_.warmup_s * 1e9);
    std::int64_t window_end =
        window_start + static_cast<std::int64_t>(plan_.window_s * 1e9);
    std::size_t next_ingest = 0;
    bool started = false, ended = false;
    std::int64_t next_backlog = window_start;
    const std::int64_t hard_deadline = t0 + 150'000'000'000LL;

    auto take_edge = [&](int which) {
      Edge& e = edges_[which];
      e.cpu_ns = ProcessCpuNs(server.pid);
      e.steal = StealTicks();
      Pending p;
      p.tag = Tag::kAux;
      p.index = static_cast<std::uint32_t>(which);
      client.Send(stats_conn, GetRequest("/stats"), p);
    };
    auto due_of = [&](double s) {
      return t0 + static_cast<std::int64_t>(s * 1e9);
    };

    for (;;) {
      const std::int64_t now = NowNs();
      if (now > hard_deadline) Die("traffic phase timed out");
      if (!started && now >= window_start) {
        started = true;
        window_start_ = now;
        take_edge(0);
        if (firehose) {
          for (std::size_t s = 0; s < ingest_conns.size(); ++s) {
            SendFirehose(client, ingest_conns[s], s);
          }
        }
      }
      if (started && !ended &&
          (firehose ? firehose_done >= plan_.firehose_batches || ingest_failed
                    : now >= window_end)) {
        ended = true;
        window_end = now;
        take_edge(1);
        break;
      }
      // Open-loop ingest trickle.
      while (!firehose && next_ingest < plan_.trickle.size() &&
             due_of(plan_.trickle[next_ingest].due_s) <= now) {
        const IngestBatch& batch = plan_.trickle[next_ingest];
        IngestRecord record;
        record.due = due_of(batch.due_s);
        record.target = batch.target;
        record.values = static_cast<std::int64_t>(batch.values.size());
        record.probe_copies = batch.probe_copies;
        ingests_.push_back(record);
        trickle_of_.push_back(next_ingest);
        Pending p;
        p.tag = Tag::kIngest;
        p.index = static_cast<std::uint32_t>(ingests_.size() - 1);
        p.due = record.due;
        client.Send(ingest_conns[0], trickle_bodies_[next_ingest], p);
        ++next_ingest;
      }
      if (started && now >= next_backlog) {
        std::size_t outstanding = 0;
        for (int c : query_conns) outstanding += client.Outstanding(c);
        backlog_.emplace_back(now, static_cast<std::int64_t>(outstanding));
        next_backlog += 10'000'000;
      }
      std::int64_t wake = now + 1'000'000;
      if (!firehose && next_ingest < plan_.trickle.size()) {
        wake = std::min(wake, due_of(plan_.trickle[next_ingest].due_s));
      }
      if (!started) wake = std::min(wake, window_start);
      if (!firehose && started) wake = std::min(wake, window_end);
      // Open-loop query slots: sent when due, whatever is outstanding.
      schedule.Step(wake);
    }
    window_end_ = window_end;
    client.Drain(NowNs() + 10'000'000'000LL);

    // Ingest has stopped.  The last batch shows once an answer counts a
    // marker posted after it; probes keep going meanwhile, so the batches
    // acked just before the window closed get their freshness too.
    // The counting sample admits a new value with probability 1/tau per
    // copy, and a bulk load raises tau about eightfold, so the end marker
    // takes 12 tau copies (a miss chance of e^-12), tau read off the last
    // probe answer: ci_high - ci_low = ln(20) tau at 95% confidence.
    double tau = 1;
    if (!probes_.empty() && probes_.back().reading.ok) {
      const ProbeReading& r = probes_.back().reading;
      tau = (r.ci_high[0] - r.count[0]) / std::log(20.0);
    }
    const auto end_copies = std::max<std::int64_t>(
        kMarkerCount, static_cast<std::int64_t>(std::ceil(12 * tau)));
    last_batch_visible_ = PostMarkerAndWait(
        client, query_conns[0], kEndMarkerValue, end_copies, [&] {
          client.SetHandler(traffic_handler);
          schedule.SendProbeBurst(query_conns[0], NowNs());
          client.Drain(NowNs() + 5'000'000'000LL);
        });
    stats_start_ = stats_body[0];
    stats_end_ = stats_body[1];
  }

  void Audit(const Server& server) {
    Client client(server.port);
    const int conn = client.Open();
    std::vector<std::pair<std::string, std::string>> asks;
    auto ask = [&](const std::string& label, const std::string& target) {
      asks.emplace_back(label, target);
    };
    ask("hotlist20", "/hotlist?k=20");
    ask("hotlist50", "/hotlist?k=50&beta=0");
    // Values 1..220 hold the exact top-200 (Zipf ranks; run.py scores
    // the exact top-200 among them).
    for (int v = 1; v <= 220; ++v) {
      ask("frequency", "/frequency?value=" + std::to_string(v));
    }
    // Disjoint log-spaced ranges: under Zipf(1) each holds about the same
    // share of the stream, so their errors are alike and nearly independent.
    std::int64_t low = 1;
    for (int i = 1; i <= 100; ++i) {
      const auto high = static_cast<std::int64_t>(
          std::llround(std::pow(static_cast<double>(kDomain), i / 100.0)));
      if (high < low) continue;
      ask("count_where", "/count_where?low=" + std::to_string(low) +
                             "&high=" + std::to_string(high));
      low = high + 1;
    }
    for (int i = 1; i <= 19; ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "/quantile?q=%.2f", i * 0.05);
      ask("quantile", buf);
    }
    ask("distinct", "/distinct");
    ask("stats", "/stats");
    for (const std::string& a : plan_.attrs) {
      ask("attr_stats", "/attr/" + a + "/stats");
    }
    audit_.clear();
    audit_.resize(asks.size());
    client.SetHandler([&](int, const Pending& p, std::int64_t,
                          const Response* r) {
      audit_[p.index].status = r != nullptr ? r->status : -1;
      if (r != nullptr) audit_[p.index].body.assign(r->body);
    });
    for (std::size_t i = 0; i < asks.size(); ++i) {
      audit_[i].label = asks[i].first;
      audit_[i].target = asks[i].second;
      Pending p;
      p.tag = Tag::kAux;
      p.index = static_cast<std::uint32_t>(i);
      client.Send(conn, GetRequest(asks[i].second), p);
    }
    client.Drain(NowNs() + 20'000'000'000LL);
  }

  void WriteRecords(const std::vector<double>& setup_s, std::int64_t vmhwm) {
    const std::string& dir = options_.out;
    WriteQueries(dir + "/queries.csv", queries_, window_start_);
    {
      std::FILE* f = std::fopen((dir + "/ingest.csv").c_str(), "w");
      for (const IngestRecord& r : ingests_) {
        std::fprintf(f, "%lld,%lld,%lld,%d,%lld,%d,%d\n",
                     static_cast<long long>(r.due - window_start_),
                     static_cast<long long>(r.sent - window_start_),
                     static_cast<long long>(r.done - window_start_), r.target,
                     static_cast<long long>(r.values), r.probe_copies,
                     r.ok ? 1 : 0);
      }
      std::fclose(f);
    }
    {
      std::FILE* f = std::fopen((dir + "/probes.csv").c_str(), "w");
      for (const ProbeRecord& p : probes_) {
        const ProbeReading& r = p.reading;
        std::fprintf(f, "%lld,%lld,%d", static_cast<long long>(p.sent - window_start_),
                     static_cast<long long>(p.done - window_start_), r.ok ? 1 : 0);
        for (std::size_t i = 0; i < kProbes; ++i) {
          std::fprintf(f, ",%.17g,%.17g,%.17g", r.count[i], r.ci_high[i],
                       r.sample_points[i]);
        }
        std::fprintf(f, "\n");
      }
      std::fclose(f);
    }
    {
      std::FILE* f = std::fopen((dir + "/backlog.csv").c_str(), "w");
      for (const auto& [t, n] : backlog_) {
        std::fprintf(f, "%lld,%lld\n", static_cast<long long>(t - window_start_),
                     static_cast<long long>(n));
      }
      std::fclose(f);
    }
    {
      std::FILE* f = std::fopen((dir + "/counts.csv").c_str(), "w");
      std::map<Value, std::int64_t> sorted(counts_.begin(), counts_.end());
      for (const auto& [v, n] : sorted) {
        std::fprintf(f, "%lld,%lld\n", static_cast<long long>(v),
                     static_cast<long long>(n));
      }
      std::fclose(f);
    }
    {
      std::FILE* f = std::fopen((dir + "/audit.tsv").c_str(), "w");
      for (const AuditAnswer& a : audit_) {
        std::fprintf(f, "%s\t%s\t%d\t%s\n", a.label.c_str(), a.target.c_str(),
                     a.status, a.body.c_str());
      }
      std::fclose(f);
    }
    std::ofstream(dir + "/stats_start.json") << stats_start_;
    std::ofstream(dir + "/stats_end.json") << stats_end_;
    std::FILE* f = std::fopen((dir + "/summary.json").c_str(), "w");
    std::fprintf(f, "{\"setup_s\":[");
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      std::fprintf(f, "%s%.9f", i ? "," : "", setup_s[i]);
    }
    std::fprintf(f, "],\"window_ns\":%lld",
                 static_cast<long long>(window_end_ - window_start_));
    std::fprintf(f, ",\"server_cpu_ns\":%lld",
                 static_cast<long long>(edges_[1].cpu_ns - edges_[0].cpu_ns));
    std::fprintf(f, ",\"steal_ticks\":%lld",
                 static_cast<long long>(edges_[1].steal - edges_[0].steal));
    std::fprintf(f, ",\"clock_ticks_per_s\":%ld", sysconf(_SC_CLK_TCK));
    std::fprintf(f, ",\"calibration_ns\":[%lld,%lld]",
                 static_cast<long long>(calibration_before_),
                 static_cast<long long>(calibration_after_));
    std::fprintf(f, ",\"vmhwm_kb\":%lld", static_cast<long long>(vmhwm));
    std::fprintf(f, ",\"method_none\":%lld", static_cast<long long>(method_none_));
    std::fprintf(f, ",\"last_batch_visible\":%s",
                 last_batch_visible_ ? "true" : "false");
    std::fprintf(f, ",\"probe_anchor\":[");
    for (std::size_t i = 0; i < kProbes; ++i) {
      std::fprintf(f, "%s%.17g", i ? "," : "", anchor_.count[i]);
    }
    std::fprintf(f, "]");
    std::fprintf(f, ",\"probe_anchor_total\":%lld",
                 static_cast<long long>(kProbeSeedCount));
    std::fprintf(f, ",\"acked_values\":[");
    for (std::size_t i = 0; i < acked_values_.size(); ++i) {
      std::fprintf(f, "%s%lld", i ? "," : "",
                   static_cast<long long>(acked_values_[i]));
    }
    std::fprintf(f, "],\"attrs\":[");
    for (std::size_t i = 0; i < plan_.attrs.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? "," : "", plan_.attrs[i].c_str());
    }
    std::fprintf(f, "],\"server_cpus\":[");
    for (std::size_t i = 0; i < options_.server_cpus.size(); ++i) {
      std::fprintf(f, "%s%d", i ? "," : "", options_.server_cpus[i]);
    }
    std::fprintf(f, "],\"generator_cpu\":%d", options_.generator_cpu);
    std::fprintf(f, ",\"thread_split\":%s", SplitJson(split_).c_str());
    std::fprintf(f, ",\"server_flags\":\"");
    for (const std::string& flag : plan_.server_flags) {
      std::fprintf(f, "%s ", flag.c_str());
    }
    std::fprintf(f, "\"}\n");
    std::fclose(f);
  }

  struct Edge {
    std::int64_t cpu_ns = 0, steal = 0;
  };
  struct AuditAnswer {
    std::string label, target;
    int status = -1;
    std::string body;
  };

  Options options_;
  WorkloadPlan plan_;
  std::vector<std::string> preload_bodies_, attr_bodies_, trickle_bodies_;
  std::vector<int> attr_batch_target_;
  std::vector<std::int64_t> attr_batch_size_;
  std::unordered_map<Value, std::int64_t> counts_;
  std::vector<std::int64_t> acked_values_;
  ProbeReading anchor_;
  std::vector<QueryRecord> queries_;
  std::vector<IngestRecord> ingests_;
  std::vector<ProbeRecord> probes_;
  /// Trickle batch index of each ingest record (dashboard, adhoc).
  std::vector<std::size_t> trickle_of_;
  std::vector<std::vector<Value>> firehose_pool_;
  std::vector<std::string> firehose_bodies_;
  std::int64_t firehose_sent_ = 0;
  /// Pool index of the batch in flight on each ingest connection.
  std::vector<std::size_t> firehose_inflight_;
  std::vector<std::pair<std::int64_t, std::int64_t>> backlog_;
  std::int64_t method_none_ = 0;
  bool last_batch_visible_ = false;
  ThreadSplit split_;
  Edge edges_[2];
  std::int64_t window_start_ = 0, window_end_ = 0;
  std::int64_t calibration_before_ = 0, calibration_after_ = 0;
  std::string stats_start_, stats_end_;
  std::vector<AuditAnswer> audit_;
};

/// The workload's open-loop query schedule alone, warm-up and window, at an
/// existing server: no spawn, set-up, ingest or audit.  It runs the same
/// QuerySchedule::Step loop as Traffic() and writes queries.csv with times
/// from the start of the schedule.
int ScheduleOnly(const Options& options, const WorkloadPlan& plan) {
  PinSelf(options.generator_cpu);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Client client(static_cast<std::uint16_t>(options.open_loop_port));
  std::vector<int> conns;
  for (int i = 0; i < plan.query_connections; ++i) conns.push_back(client.Open());
  std::vector<QueryRecord> records;
  client.SetHandler([&](int, const Pending& p, std::int64_t now,
                        const Response* r) {
    records.push_back({p.due, p.sent, now,
                       static_cast<std::uint8_t>(r != nullptr && r->status == 200),
                       static_cast<std::uint8_t>(p.tag == Tag::kProbe)});
  });
  QuerySchedule schedule(client, conns, plan);
  const std::int64_t t0 = NowNs();
  schedule.Start(t0);
  while (!schedule.Done()) schedule.Step(NowNs() + 1'000'000);
  client.Drain(NowNs() + 10'000'000'000LL);
  WriteQueries(options.out + "/queries.csv", records, t0);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  signal(SIGPIPE, SIG_IGN);
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value.c_str());
    else if (flag == "--server") options.server = value;
    else if (flag == "--out") options.out = value;
    else if (flag == "--server-cpus") options.server_cpus = ParseCpus(value);
    else if (flag == "--generator-cpu") options.generator_cpu = std::atoi(value.c_str());
    else if (flag == "--open-loop-port") options.open_loop_port = std::atoi(value.c_str());
    else if (flag == "--split-threads") options.split_threads = std::atoi(value.c_str());
    else Die("unknown flag " + std::string(flag));
  }
  if (options.split_threads > 0) {
    std::printf("%s\n", SplitJson(SplitServerThreads(options.split_threads,
                                                     options.server_cpus))
                             .c_str());
    return 0;
  }
  if (options.out.empty()) Die("--out is required");
  Kind kind;
  if (!ParseKind(options.workload, &kind)) Die("unknown --workload");
  WorkloadPlan plan = MakePlan(kind, options.seed, options.seconds);
  if (options.open_loop_port > 0) return ScheduleOnly(options, plan);
  if (options.server.empty()) Die("--server is required");
  Run run(options, std::move(plan));
  return run.Execute();
}
