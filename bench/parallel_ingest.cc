// Thread-scaling ingestion benchmark for the sharded parallel ingestion
// subsystem: N producer threads feed a ShardedSynopsis<ConciseSample> with
// N independently-locked shards through per-producer ShardedBatchInserters,
// versus the single-mutex SharedSynopsis baseline (per-element and batched).
// Reports elements/sec over zipf(1.0) and uniform streams.
//
// Flags:
//   --elements N     stream length (default 10'000'000)
//   --max-threads N  highest thread/shard count (default hardware_concurrency)
//   --batch N        producer buffer size (default 4096)
//   --footprint N    per-shard footprint bound in words (default 1000)
//   --json PATH      machine-readable output (BENCH_parallel_ingest.json)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "concurrency/shared_synopsis.h"
#include "concurrency/sharded_synopsis.h"
#include "core/concise_sample.h"
#include "metrics/table_printer.h"
#include "workload/generators.h"

namespace aqua {
namespace bench {
namespace {

std::int64_t FlagValue(int argc, char** argv, const char* name,
                       std::int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ConciseSampleOptions ShardOptions(Words footprint, std::uint64_t seed) {
  return ConciseSampleOptions{.footprint_bound = footprint, .seed = seed};
}

/// Splits [0, n) into `parts` near-equal contiguous chunks.
std::vector<std::pair<std::size_t, std::size_t>> Chunks(std::size_t n,
                                                        std::size_t parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t base = n / parts;
  std::size_t begin = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t end = p + 1 == parts ? n : begin + base;
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

/// Single-mutex baseline, one virtual call per element (the pre-sharding
/// ingestion path).
double RunSharedPerElement(const std::vector<Value>& data, Words footprint,
                           std::size_t threads) {
  SharedSynopsis<ConciseSample> shared(
      ConciseSample(ShardOptions(footprint, 0xA11CE)));
  const auto chunks = Chunks(data.size(), threads);
  const double start = NowSeconds();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = chunks[t].first; i < chunks[t].second; ++i) {
        shared.Insert(data[i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  return NowSeconds() - start;
}

/// Single-mutex, batched: producers buffer locally and drain whole batches
/// through the synopsis-level InsertBatch under one lock acquisition.
double RunSharedBatched(const std::vector<Value>& data, Words footprint,
                        std::size_t threads, std::size_t batch) {
  SharedSynopsis<ConciseSample> shared(
      ConciseSample(ShardOptions(footprint, 0xB22DF)));
  const auto chunks = Chunks(data.size(), threads);
  const double start = NowSeconds();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BatchInserter<ConciseSample> inserter(&shared, batch);
      for (std::size_t i = chunks[t].first; i < chunks[t].second; ++i) {
        inserter.Add(data[i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  return NowSeconds() - start;
}

/// Sharded: T threads, T independently-locked shards, per-producer batch
/// buffers; a final Snapshot() merges the shards (timed separately).
struct ShardedRun {
  double ingest_seconds = 0.0;
  double snapshot_seconds = 0.0;
};

ShardedRun RunSharded(const std::vector<Value>& data, Words footprint,
                      std::size_t shards, std::size_t threads,
                      std::size_t batch) {
  ShardedSynopsis<ConciseSample> sharded(shards, [&](std::size_t i) {
    return ConciseSample(
        ShardOptions(footprint, 0xC33E0 + 977ULL * (i + 1)));
  });
  const auto chunks = Chunks(data.size(), threads);
  ShardedRun run;
  const double start = NowSeconds();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ShardedBatchInserter<ConciseSample> inserter(&sharded, batch);
      for (std::size_t i = chunks[t].first; i < chunks[t].second; ++i) {
        inserter.Add(data[i]);
      }
    });
  }
  for (auto& w : workers) w.join();
  run.ingest_seconds = NowSeconds() - start;

  // One drain into an empty epoch, as a serving handle's first refresh.
  ConciseSample epoch(ShardOptions(footprint, 0xC33E0));
  const double snap_start = NowSeconds();
  const Status drained = sharded.DrainInto(epoch);
  run.snapshot_seconds = NowSeconds() - snap_start;
  if (!drained.ok()) {
    std::cerr << "drain failed: " << drained.ToString() << "\n";
    std::exit(1);
  }
  return run;
}

}  // namespace
}  // namespace bench
}  // namespace aqua

int main(int argc, char** argv) {
  using namespace aqua;
  using namespace aqua::bench;

  const bool smoke = ApplySmoke(argc, argv);
  const std::int64_t elements = std::max<std::int64_t>(
      1,
      FlagValue(argc, argv, "--elements", smoke ? 20000 : 10000000));
  const auto hw = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  const std::int64_t max_threads =
      std::max<std::int64_t>(1, FlagValue(argc, argv, "--max-threads", hw));
  const auto batch = static_cast<std::size_t>(
      std::max<std::int64_t>(1, FlagValue(argc, argv, "--batch", 4096)));
  const auto footprint =
      static_cast<Words>(FlagValue(argc, argv, "--footprint", 1000));
  const std::string json_path = BenchReport::JsonPathFromArgs(argc, argv);

  BenchReport report("parallel_ingest");
  PrintHeader("parallel ingestion thread scaling (elements/sec)");
  std::cout << "elements=" << elements << " batch=" << batch
            << " footprint=" << footprint << " hw_concurrency=" << hw
            << "\n";

  struct Dist {
    const char* name;
    std::vector<Value> data;
  };
  std::vector<Dist> dists;
  dists.push_back({"zipf1.0", ZipfValues(elements, 100000, 1.0, 0xD157)});
  dists.push_back({"uniform", UniformValues(elements, 100000, 0xD158)});

  TablePrinter table(
      {"dist", "config", "shards", "producers", "Melem/s", "speedup"});
  const auto n = static_cast<double>(elements);

  for (const Dist& dist : dists) {
    double base_rate = 0.0;
    // Baselines: the single-mutex wrapper, per-element and batched.
    {
      const double secs = RunSharedPerElement(dist.data, footprint, 1);
      base_rate = n / secs;
      table.AddRow({dist.name, "shared/per-element", "1", "1",
                    TablePrinter::Num(base_rate / 1e6, 2), "1.00"});
      report.Add(std::string(dist.name) + "/shared_per_element/s1_p1",
                 {{"elements_per_sec", base_rate},
                  {"shards", 1.0},
                  {"producers", 1.0}});
    }
    {
      const double secs = RunSharedBatched(dist.data, footprint, 1, batch);
      const double rate = n / secs;
      table.AddRow({dist.name, "shared/batched", "1", "1",
                    TablePrinter::Num(rate / 1e6, 2),
                    TablePrinter::Num(rate / base_rate, 2)});
      report.Add(std::string(dist.name) + "/shared_batched/s1_p1",
                 {{"elements_per_sec", rate},
                  {"shards", 1.0},
                  {"producers", 1.0}});
    }
    // Sharded scaling: shard counts 1, 2, 4, ... up to max_threads (8 is
    // always included so the 8-shard reference number exists on small
    // hosts).  Producer threads are capped at the core count — running
    // more producers than cores only measures context-switch overhead,
    // while extra shards beyond the producer count still cut lock
    // contention.
    std::vector<std::int64_t> shard_counts;
    for (std::int64_t s = 1; s <= max_threads; s *= 2) {
      shard_counts.push_back(s);
    }
    if (shard_counts.back() < 8) shard_counts.push_back(8);
    double sharded1_rate = 0.0;
    for (std::int64_t s : shard_counts) {
      const std::int64_t producers = std::min<std::int64_t>(s, hw);
      const ShardedRun run =
          RunSharded(dist.data, footprint, static_cast<std::size_t>(s),
                     static_cast<std::size_t>(producers), batch);
      const double rate = n / run.ingest_seconds;
      if (s == 1) sharded1_rate = rate;
      table.AddRow({dist.name, "sharded/batched", TablePrinter::Num(s),
                    TablePrinter::Num(producers),
                    TablePrinter::Num(rate / 1e6, 2),
                    TablePrinter::Num(rate / base_rate, 2)});
      report.Add(std::string(dist.name) + "/sharded_batched/s" +
                     std::to_string(s) + "_p" + std::to_string(producers),
                 {{"elements_per_sec", rate},
                  {"shards", static_cast<double>(s)},
                  {"producers", static_cast<double>(producers)},
                  {"snapshot_merge_sec", run.snapshot_seconds},
                  {"speedup_vs_shared", rate / base_rate},
                  {"speedup_vs_sharded1",
                   sharded1_rate > 0.0 ? rate / sharded1_rate : 1.0}});
    }
  }
  table.Print(std::cout);
  std::cout << "(speedup column is relative to shared/per-element at 1 "
               "thread; sharded runs also drain into an epoch)\n";
  if (!report.WriteJson(json_path)) return 1;
  return 0;
}
