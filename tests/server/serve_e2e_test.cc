// End-to-end test of the aqua_serve binary: spawns the real server on an
// ephemeral port, speaks HTTP/1.1 over a raw socket, and checks that
//
//  - /hotlist and /frequency answers match an in-process ServingEngine fed
//    the identical stream (the server is run with --shards 1 so snapshot
//    contents are deterministic: a single-shard snapshot is a copy, and no
//    merge randomness enters the answer),
//  - NaN and infinite query parameters answer 400 instead of aborting,
//  - bad numeric flags (a Zipf preload spec out of range, a NaN, infinite
//    or overflowing --attr weight) exit with the usage status 2 instead of
//    aborting or being ignored, and a catalog that cannot seal exits before
//    the preload,
//  - --pin-cores pins the reactor and /stats reports the transport
//    counters,
//  - overload answers 503 (one worker + queue capacity 1 + a debug request
//    that holds the worker),
//  - SIGTERM drains gracefully with exit code 0.
//
// The binary path is injected by CMake as AQUA_SERVE_BINARY; the ctest
// entry carries a TIMEOUT so a hung server fails rather than wedging CI.

#include <unistd.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/planner.h"
#include "server/e2e_util.h"
#include "server/json.h"
#include "server/serving_engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

using namespace e2e;  // NOLINT(build/namespaces): test-local helpers

constexpr std::int64_t kPreloadN = 30000;
constexpr std::int64_t kPreloadDomain = 500;
constexpr double kPreloadAlpha = 1.0;
constexpr std::uint64_t kPreloadSeed = 424242;

std::string PreloadFlag() {
  return std::to_string(kPreloadN) + "," + std::to_string(kPreloadDomain) +
         "," + std::to_string(kPreloadAlpha) + "," +
         std::to_string(kPreloadSeed);
}

/// The in-process reference: same options, same stream, same single
/// InsertBatch the server's --preload-zipf performs.
ServingEngineOptions ReferenceOptions() {
  ServingEngineOptions options;
  options.shards = 1;
  return options;
}

TEST(ServeE2eTest, HotListMatchesInProcessEngine) {
  ServerProcess server({"--shards", "1", "--preload-zipf", PreloadFlag()});

  ServingEngine reference(ReferenceOptions());
  reference.InsertBatch(
      ZipfValues(kPreloadN, kPreloadDomain, kPreloadAlpha, kPreloadSeed));

  const RawResponse got = Fetch(server.port(), "/hotlist?k=10&beta=3");
  ASSERT_EQ(got.status, 200) << got.body;

  PlannedResponse expected;
  RunPlannedQueryInto(reference.registry(),
                      {.kind = QueryKind::kHotList, .k = 10, .beta = 3},
                      &expected);
  JsonWriter w;
  w.BeginObject();
  w.Key("items").BeginArray();
  for (const HotListItem& item : expected.hotlist) {
    w.BeginObject();
    w.Key("value").Int(item.value);
    w.Key("estimated_count").Double(item.estimated_count);
    w.Key("synopsis_count").Int(item.synopsis_count);
    w.EndObject();
  }
  w.EndArray();
  w.Key("method").String(expected.method);
  w.EndObject();
  EXPECT_FALSE(expected.hotlist.empty());
  EXPECT_EQ(StripResponseNs(got.body), w.str());
  EXPECT_EQ(expected.method, "counting-sample");
}

TEST(ServeE2eTest, FrequencyMatchesInProcessEngine) {
  ServerProcess server({"--shards", "1", "--preload-zipf", PreloadFlag()});

  ServingEngine reference(ReferenceOptions());
  reference.InsertBatch(
      ZipfValues(kPreloadN, kPreloadDomain, kPreloadAlpha, kPreloadSeed));

  for (Value v : {Value{1}, Value{2}, Value{17}, Value{499}}) {
    const RawResponse got =
        Fetch(server.port(), "/frequency?value=" + std::to_string(v));
    ASSERT_EQ(got.status, 200) << got.body;
    PlannedResponse expected;
    RunPlannedQueryInto(reference.registry(),
                        {.kind = QueryKind::kFrequency, .value = v},
                        &expected);
    JsonWriter w;
    w.BeginObject();
    w.Key("estimate").Double(expected.estimate.value);
    w.Key("ci_low").Double(expected.estimate.ci_low);
    w.Key("ci_high").Double(expected.estimate.ci_high);
    w.Key("confidence").Double(expected.estimate.confidence);
    w.Key("sample_points").Int(expected.estimate.sample_points);
    w.Key("method").String(expected.method);
    w.EndObject();
    EXPECT_EQ(StripResponseNs(got.body), w.str()) << "value=" << v;
  }
}

TEST(ServeE2eTest, IngestThenQueryRoundTrips) {
  ServerProcess server({"--shards", "1", "--cache-stale-ops", "1"});
  const RawResponse ingest =
      Post(server.port(), "/ingest", "[7,7,7,7,7,8,8]");
  ASSERT_EQ(ingest.status, 200) << ingest.body;
  EXPECT_NE(ingest.body.find("\"ingested\":7"), std::string::npos);

  const RawResponse stats = Fetch(server.port(), "/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"inserts\":7"), std::string::npos);

  const RawResponse bad = Post(server.port(), "/ingest", "[1, oops]");
  EXPECT_EQ(bad.status, 400);
}

TEST(ServeE2eTest, OverloadAnswers503) {
  ServerProcess server({"--enable-debug", "--workers", "1",
                        "--queue-capacity", "1"});

  // Hold the only worker (the debug sleeper is explicitly
  // worker-dispatched), then fill the queue's single slot with a mutating
  // request; the next worker-route request must be shed with 503 instead
  // of queueing behind the sleeper.
  const int busy = ConnectTo(server.port());
  SendRequest(busy, "GET", "/debug/sleep?ms=2000");
  usleep(300 * 1000);  // worker has dequeued the sleeper
  const int queued = ConnectTo(server.port());
  SendRequest(queued, "POST", "/ingest", "[1,2,3]");
  usleep(200 * 1000);  // the ingest now occupies the queue slot

  bool saw_503 = false;
  for (int i = 0; i < 5 && !saw_503; ++i) {
    const RawResponse shed = Post(server.port(), "/ingest", "[4]");
    saw_503 = shed.status == 503;
  }
  EXPECT_TRUE(saw_503) << "no request was shed under overload";

  // The read path runs inline on the reactors and never sheds: even with
  // the worker pool saturated, /healthz answers immediately.
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);

  // The held requests still complete (bounded queue sheds, never drops
  // accepted work).
  EXPECT_EQ(ReadResponse(busy).status, 200);
  EXPECT_EQ(ReadResponse(queued).status, 200);
  close(busy);
  close(queued);

  const RawResponse stats = Fetch(server.port(), "/stats");
  EXPECT_NE(stats.body.find("\"responses_503\":"), std::string::npos);
}

TEST(ServeE2eTest, NonFiniteParametersAnswer400AndTheServerSurvives) {
  ServerProcess server({"--shards", "1", "--attr", "price", "--preload-zipf",
                        PreloadFlag()});
  for (const std::string value :
       {"nan", "NAN", "inf", "-inf", "infinity", "1e999"}) {
    for (const std::string prefix : {"/", "/attr/price/"}) {
      for (const std::string query :
           {"quantile?q=", "quantile?confidence=", "count_where?confidence=",
            "hotlist?beta="}) {
        const std::string target = prefix + query + value;
        EXPECT_EQ(Fetch(server.port(), target).status, 400) << target;
      }
    }
  }
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  EXPECT_EQ(Fetch(server.port(), "/quantile?q=0.5").status, 200);
  EXPECT_EQ(server.TerminateAndWait(), 0);
}

/// Runs aqua_serve with `args` to its exit, stdout discarded, and returns
/// its wait status; its stderr goes to *stderr_text.  A server that starts
/// serving instead is killed after 10 s (so the status then shows a
/// signal).
int RunToExit(const std::vector<std::string>& args, std::string* stderr_text) {
  FILE* err = tmpfile();
  if (err == nullptr) return -1;
  const pid_t pid = fork();
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    dup2(devnull, STDOUT_FILENO);
    dup2(fileno(err), STDERR_FILENO);
    std::vector<std::string> all = {AQUA_SERVE_BINARY, "--port", "0"};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  int wstatus = 0;
  bool exited = false;
  for (int waited_ms = 0; waited_ms < 10000 && !exited; waited_ms += 10) {
    exited = waitpid(pid, &wstatus, WNOHANG) == pid;
    if (!exited) usleep(10000);
  }
  if (!exited) {
    kill(pid, SIGKILL);
    waitpid(pid, &wstatus, 0);
  }
  stderr_text->clear();
  rewind(err);
  char buf[4096];
  for (std::size_t n; (n = fread(buf, 1, sizeof(buf), err)) > 0;) {
    stderr_text->append(buf, n);
  }
  fclose(err);
  return wstatus;
}

TEST(ServeE2eTest, BadNumericFlagsExitTwoWithoutASignal) {
  struct Spec {
    /// Space-separated flags.
    std::string flags;
    /// Text stderr must hold, or empty.
    std::string says;
  };
  const std::vector<Spec> specs = {
      {"--preload-zipf 10,0,1.0,1", ""},    // empty domain
      {"--preload-zipf 10,500,nan,1", ""},  // NaN alpha
      {"--preload-zipf 10,500,-2,1", ""},   // negative alpha
      {"--preload-zipf -1,500,1.0,1", ""},  // negative count
      {"--attr a:nan", ""},
      {"--attr a:inf", ""},
      // The weights' sum overflows, so the catalog cannot seal; it seals
      // before the preload, so nothing is preloaded first.
      {"--attr a:1e308 --attr b:1e308", "catalog seal failed"},
      {"--preload-zipf 3000000,1000,1.0,1 --attr a:1e308 --attr b:1e308",
       "catalog seal failed"},
  };
  for (const Spec& spec : specs) {
    std::vector<std::string> args;
    std::istringstream words(spec.flags);
    for (std::string word; words >> word;) args.push_back(word);
    std::string err;
    const int wstatus = RunToExit(args, &err);
    EXPECT_FALSE(WIFSIGNALED(wstatus))
        << spec.flags << " ended by signal " << WTERMSIG(wstatus);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 2)
        << spec.flags << " exit status " << WEXITSTATUS(wstatus);
    EXPECT_NE(err.find(spec.says), std::string::npos) << spec.flags << err;
    EXPECT_EQ(err.find("preloaded"), std::string::npos) << spec.flags << err;
  }
}

TEST(ServeE2eTest, PinnedReactorAndTransportCountersInStats) {
  ServerProcess server({"--reactors", "1", "--pin-cores"});
  ASSERT_EQ(Fetch(server.port(), "/healthz").status, 200);
  const RawResponse stats = Fetch(server.port(), "/stats");
  ASSERT_EQ(stats.status, 200);
  // Pinning is best-effort, but every host has CPU 0.
  EXPECT_NE(stats.body.find("\"reactors_pinned\":1"), std::string::npos)
      << stats.body;
  // The /healthz exchange already moved the transport counters.
  for (const std::string counter : {"\"syscalls\":", "\"zero_copy_sends\":"}) {
    EXPECT_NE(stats.body.find(counter), std::string::npos) << stats.body;
    EXPECT_EQ(stats.body.find(counter + "0,"), std::string::npos) << stats.body;
  }
  EXPECT_EQ(server.TerminateAndWait(), 0);
}

TEST(ServeE2eTest, SigtermDrainsCleanly) {
  ServerProcess server({"--shards", "1"});
  ASSERT_EQ(Fetch(server.port(), "/healthz").status, 200);
  EXPECT_EQ(server.TerminateAndWait(), 0);
}

}  // namespace
}  // namespace aqua
