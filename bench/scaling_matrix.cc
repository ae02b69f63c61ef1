// The scaling harness: measured (not extrapolated) multi-core numbers for
// the vectorized data plane, swept over --reactors × --shards with
// optional core pinning.  Three sections, one BENCH_6.json:
//
//   ingest_s{S}        S producer threads driving ServingEngine::InsertBatch
//                      through the SIMD batch kernels and the round-robin
//                      sharded inserter (elements/sec vs shard count),
//   batch_large_tau    per-element Insert vs batched InsertBatch on the
//                      concise sample in the large-τ regime — the paper's
//                      "per-update cost is the point" number, reported as
//                      batch_speedup_vs_insert,
//   serve_r{R}_s{S}    a real HttpServer with R pinned reactors over an
//                      engine with S ingest shards, keep-alive GET load
//                      from R pinned client threads (rps + tail latency).
//
// --pin-cpus pins reactor i to CPU i and client thread t to CPU R+t
// (modulo online CPUs) via sched_setaffinity; the JSON's hardware object
// records hw_concurrency, the affinity mask width, and the pin policy, so
// a 1-CPU container's numbers cannot masquerade as a 16-core result.
// --smoke shrinks streams and request counts to CI size; --json <path>
// archives the metrics (BENCH_6.json).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/http_client.h"
#include "core/concise_sample.h"
#include "server/routes.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "workload/generators.h"

namespace aqua {
namespace bench {
namespace {

constexpr std::size_t kBatch = 4096;

/// "1,2,4" -> {1, 2, 4}; invalid tokens are skipped.
std::vector<int> ParseIntList(const std::string& arg) {
  std::vector<int> out;
  std::size_t at = 0;
  while (at < arg.size()) {
    const std::size_t comma = arg.find(',', at);
    const std::string token =
        arg.substr(at, comma == std::string::npos ? arg.size() - at
                                                  : comma - at);
    const int v = std::atoi(token.c_str());
    if (v > 0) out.push_back(v);
    at = comma == std::string::npos ? arg.size() : comma + 1;
  }
  return out;
}

ServingEngineOptions EngineOptions(std::size_t shards) {
  ServingEngineOptions options;
  options.shards = shards;
  // Refreshes are merge work, not wire work; push them past the bench
  // horizon so a serving row measures the serving path.
  options.cache_max_stale_ops = std::numeric_limits<std::int64_t>::max();
  options.cache_max_stale_interval = std::chrono::hours(24);
  return options;
}

/// S producer threads, each feeding its contiguous slice of `stream` in
/// kBatch-element spans through the engine's vectorized ingest.
void IngestRow(int shards, const std::vector<Value>& stream, bool pin,
               BenchReport* report) {
  double best_s = 1e300;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    ServingEngine engine(EngineOptions(static_cast<std::size_t>(shards)));
    const std::size_t per_thread = stream.size() / static_cast<std::size_t>(
                                                       shards);
    const std::int64_t start = NowNs();
    std::vector<std::thread> producers;
    producers.reserve(static_cast<std::size_t>(shards));
    for (int t = 0; t < shards; ++t) {
      producers.emplace_back([&, t] {
        if (pin) PinSelfToCpu(static_cast<std::size_t>(t));
        const std::size_t begin = static_cast<std::size_t>(t) * per_thread;
        const std::size_t end =
            t == shards - 1 ? stream.size() : begin + per_thread;
        const std::span<const Value> mine(stream.data() + begin,
                                          end - begin);
        for (std::size_t i = 0; i < mine.size(); i += kBatch) {
          engine.InsertBatch(
              mine.subspan(i, std::min(kBatch, mine.size() - i)));
        }
      });
    }
    for (std::thread& p : producers) p.join();
    const double secs = static_cast<double>(NowNs() - start) / 1e9;
    if (secs < best_s) best_s = secs;
  }
  const auto n = static_cast<double>(stream.size());
  std::printf("ingest_s%-2d %3d threads  %10.0f elem/s  %7.1f ns/elem\n",
              shards, shards, n / best_s, best_s / n * 1e9);
  char row[32];
  std::snprintf(row, sizeof(row), "ingest_s%d", shards);
  report->Add(row, {{"shards", static_cast<double>(shards)},
                    {"threads", static_cast<double>(shards)},
                    {"elements_per_sec", n / best_s},
                    {"ns_per_element", best_s / n * 1e9}});
}

/// The acceptance number: batched vs per-element concise-sample ingest in
/// the large-τ regime (long low-duplication stream, small footprint, so
/// the threshold is high and almost every element is skip-jumped).
void BatchLargeTauRow(BenchReport* report) {
  const std::int64_t n = SmokeCap(2000000);
  const std::vector<Value> stream = UniformValues(n, 400000, 91);
  constexpr int kReps = 3;
  auto time_best = [&](auto&& feed) {
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      ConciseSample sample(
          ConciseSampleOptions{.footprint_bound = 1000, .seed = 92});
      const std::int64_t start = NowNs();
      feed(sample);
      const double secs = static_cast<double>(NowNs() - start) / 1e9;
      if (secs < best) best = secs;
    }
    return best;
  };
  const double insert_s = time_best([&](ConciseSample& sample) {
    for (Value v : stream) sample.Insert(v);
  });
  const double batch_s = time_best([&](ConciseSample& sample) {
    const std::span<const Value> all(stream);
    for (std::size_t i = 0; i < all.size(); i += kBatch) {
      sample.InsertBatch(all.subspan(i, std::min(kBatch, all.size() - i)));
    }
  });
  const auto dn = static_cast<double>(n);
  const double speedup = insert_s / batch_s;
  std::printf(
      "batch_large_tau  insert %6.1f ns/elem  batch %6.1f ns/elem  "
      "speedup %.2fx\n",
      insert_s / dn * 1e9, batch_s / dn * 1e9, speedup);
  report->Add("batch_large_tau",
              {{"insert_ns_per_element", insert_s / dn * 1e9},
               {"batch_ns_per_element", batch_s / dn * 1e9},
               {"batch_speedup_vs_insert", speedup}});
}

/// One serving cell: R reactors (pinned when --pin-cpus) over an engine
/// with S ingest shards, cacheable GET load from R keep-alive clients.
void ServeRow(int reactors, int shards, const std::vector<Value>& preload,
              bool pin, BenchReport* report) {
  ServingEngine engine(EngineOptions(static_cast<std::size_t>(shards)));
  engine.InsertBatch(preload);

  HttpServerOptions options;
  options.reactors = reactors;
  options.workers = 1;
  options.pin_reactors = pin;
  HttpServer server(options);
  RegisterServingRoutes(server, engine);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "serve_r%d_s%d: server failed to start\n", reactors,
                 shards);
    return;
  }

  const int per_thread = SmokeMode() ? 200 : 6000;
  const std::vector<std::string> paths = {"/hotlist?k=10&beta=3",
                                          "/frequency?value=17",
                                          "/count_where?low=0&high=1000"};
  // Clients pin past the reactors so they land on distinct cores when the
  // host has enough; on a narrow host both wrap onto the same CPUs and
  // the hardware object says so.
  const LoadResult load = DriveLoad(server.port(), paths, reactors,
                                    per_thread, pin ? reactors : -1);
  const HttpServer::ServerStats stats = server.Stats();
  server.Shutdown();

  const LatencySummary summary = Summarize(load.samples_ns, load.elapsed_s);
  std::printf(
      "serve_r%d_s%-2d %10.0f rps  p50 %7.0f ns  p99 %8.0f ns  p999 "
      "%8.0f ns  hits %lld/%lld  errors %lld\n",
      reactors, shards, summary.throughput_rps, summary.p50_ns,
      summary.p99_ns, summary.p999_ns,
      static_cast<long long>(stats.cache_hits),
      static_cast<long long>(stats.requests),
      static_cast<long long>(load.errors));
  char row[32];
  std::snprintf(row, sizeof(row), "serve_r%d_s%d", reactors, shards);
  std::vector<std::pair<std::string, double>> metrics = {
      {"reactors", static_cast<double>(reactors)},
      {"shards", static_cast<double>(shards)},
      {"client_threads", static_cast<double>(reactors)},
      {"pinned", pin ? 1.0 : 0.0},
      {"cache_hits", static_cast<double>(stats.cache_hits)},
      {"errors", static_cast<double>(load.errors)},
  };
  AppendSummaryMetrics("", summary, &metrics);
  report->Add(row, std::move(metrics));
}

}  // namespace
}  // namespace bench
}  // namespace aqua

int main(int argc, char** argv) {
  using namespace aqua;          // NOLINT(build/namespaces)
  using namespace aqua::bench;   // NOLINT(build/namespaces)
  ApplySmoke(argc, argv);
  const std::string json_path = BenchReport::JsonPathFromArgs(argc, argv);

  bool pin = false;
  std::vector<int> reactors = {1, 2, 4};
  std::vector<int> shards = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pin-cpus") == 0) {
      pin = true;
    } else if (std::strcmp(argv[i], "--reactors") == 0 && i + 1 < argc) {
      reactors = ParseIntList(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = ParseIntList(argv[++i]);
    }
  }
  if (SmokeMode()) {
    reactors = {1, 2};
    shards = {1, 2};
  }

  BenchReport report("scaling_matrix");
  report.SetHardware("pin_policy",
                     pin ? "reactor i -> cpu i, client t -> cpu R+t "
                           "(mod online cpus)"
                         : "unpinned");

  PrintHeader("scaling matrix (reactors x shards, measured)");
  std::printf("hw_concurrency=%u pin=%s\n",
              std::thread::hardware_concurrency(), pin ? "on" : "off");

  const std::vector<Value> ingest_stream =
      ZipfValues(SmokeCap(1000000), 50000, 1.0, 93);
  for (int s : shards) IngestRow(s, ingest_stream, pin, &report);

  BatchLargeTauRow(&report);

  const std::vector<Value> preload = ZipfValues(SmokeCap(200000), 500, 1.0,
                                                94);
  for (int r : reactors) {
    for (int s : shards) ServeRow(r, s, preload, pin, &report);
  }

  if (!report.WriteJson(json_path)) return 1;
  return 0;
}
