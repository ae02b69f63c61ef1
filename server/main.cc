// aqua_serve: an approximate-query HTTP server over the serving engine.
//
// Every query endpoint returns the paper's notion of a query response — an
// approximate answer plus an accuracy measure (§1) — together with the
// server-side response time in nanoseconds:
//
//   GET /hotlist?k=10&beta=3        hot list (§5)
//   GET /frequency?value=42         per-value frequency estimate
//   GET /count_where?low=1&high=99  COUNT(*) WHERE low <= v <= high
//   GET /quantile?q=0.5             estimated q-quantile of the relation
//   GET /distinct                   distinct-values estimate ([FM85])
//   GET /stats                      ingest counters + snapshot-cache stats
//   GET /healthz                    liveness probe
//   POST /ingest                    body: JSON array (or bare list) of values
//   POST /delete                    body: a single value
//
// With one or more --attr flags the multi-attribute catalog is served too,
// under the same footprint budget (--catalog-budget):
//
//   GET /attr/{name}/hotlist?k=10&beta=3
//   GET /attr/{name}/frequency?value=42
//   GET /attr/{name}/count_where?low=1&high=99
//   GET /attr/{name}/quantile?q=0.5
//   GET /attr/{name}/distinct
//   GET /attr/{name}/stats
//   POST /attr/{name}/ingest        body: JSON array of values
//   POST /attr/{name}/delete        body: JSON array of values
//
// Unknown attributes answer 404.
//
// Queries are answered from epoch-cached snapshots (SnapshotCache) and the
// frozen view built alongside each epoch, so a request costs a pointer load
// plus O(k) (hot list) or O(log m) (count_where/quantile) answer
// computation; snapshots trail ingest by at most --cache-stale-ops
// operations or --cache-stale-ms milliseconds.  When the bounded request
// queue is full the server answers 503 instead of queueing without
// bound.  SIGTERM/SIGINT drain gracefully.

#include <signal.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "server/cluster.h"
#include "server/epoch_pump.h"
#include "server/push_client.h"
#include "server/routes.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "warehouse/catalog.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace aqua {
namespace {

struct ServeFlags {
  HttpServerOptions http;
  ServingEngineOptions engine;
  // --attr name[:weight], repeatable; non-empty enables the catalog routes.
  std::vector<std::pair<std::string, double>> attrs;
  Words catalog_budget = 16384;
  // --preload-zipf N,DOMAIN,ALPHA,SEED
  std::int64_t preload_n = 0;
  std::int64_t preload_domain = 1000;
  double preload_alpha = 1.0;
  std::uint64_t preload_seed = 42;
  bool enable_debug = false;
  // --refresh-mode inline|pump; pump moves every epoch refresh (snapshot
  // re-merge + view build) onto a background thread per refresh domain.
  RefreshMode refresh_mode = RefreshMode::kInline;
  std::int64_t refresh_interval_ms = 20;
  // Cluster mode (--role ingest|aggregator); see src/server/cluster.h.
  ClusterRole role = ClusterRole::kSingle;
  std::string node_id = "node";
  std::string data_dir;
  std::string push_host = "127.0.0.1";
  std::uint16_t push_port = 0;
  std::int64_t push_interval_ms = 200;
  std::int64_t checkpoint_ops = 4096;
  std::int64_t push_retries = 3;
  std::int64_t push_backoff_ms = 50;
  std::int64_t debug_commit_hold_ms = 0;
};

bool ParseInt64(std::string_view s, std::int64_t* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size() && !s.empty();
}

/// Rejects nan and inf spellings as well as garbage: no flag takes a
/// non-finite value.
bool ParseDouble(std::string_view s, double* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size() && !s.empty() &&
         std::isfinite(*out);
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port N             listen port (0 = ephemeral; default 0)\n"
      "  --bind ADDR          bind address (default 127.0.0.1)\n"
      "  --reactors N         shared-nothing IO reactors; each owns an\n"
      "                       SO_REUSEPORT listener, epoll instance and\n"
      "                       response cache (default 1)\n"
      "  --workers N          handler threads for mutating routes "
      "(default 4)\n"
      "  --io-backend B       reactor IO backend: epoll | io_uring\n"
      "                       (default epoll; io_uring falls back to epoll\n"
      "                       with a warning when the kernel lacks support)\n"
      "  --pin-cores          pin reactor i to CPU i (mod online cores)\n"
      "  --queue-capacity N   bounded request queue (default 256)\n"
      "  --shards N           ingest shards for the concise and "
      "traditional samples\n"
      "                       (default 8)\n"
      "  --footprint N        per-synopsis footprint bound, words "
      "(default 4096)\n"
      "  --seed N             synopsis RNG seed\n"
      "  --cache-stale-ops N  snapshot refresh after N ingest ops "
      "(default 8192)\n"
      "  --cache-stale-ms N   snapshot refresh after N ms (default 100)\n"
      "  --refresh-mode M     inline | pump (default inline).  pump runs\n"
      "                       every epoch refresh on a background thread,\n"
      "                       so query threads never pay a re-merge\n"
      "  --refresh-interval-ms N  pump wake cadence (default 20)\n"
      "  --attr NAME[:WEIGHT] serve /attr/NAME/... from the catalog "
      "(repeatable)\n"
      "  --catalog-budget N   total words across all --attr synopses "
      "(default 16384)\n"
      "  --preload-zipf N,DOMAIN,ALPHA,SEED  ingest a Zipf stream at "
      "startup\n"
      "  --enable-debug       expose GET /debug/sleep?ms= (testing only)\n"
      "cluster mode:\n"
      "  --role R             single | ingest | aggregator (default "
      "single)\n"
      "  --node-id NAME       this ingest node's stable id\n"
      "  --data-dir DIR       WAL + checkpoint directory (ingest role)\n"
      "  --push-to HOST:PORT  the aggregator's /cluster/push endpoint\n"
      "  --push-interval-ms N background delta push period (default 200)\n"
      "  --checkpoint-ops N   checkpoint after N new ops (0 = never; "
      "default 4096)\n"
      "  --push-retries N     push attempts per frame (default 3)\n"
      "  --push-backoff-ms N  sleep between push attempts (default 50)\n"
      "  --debug-commit-hold-ms N  fault injection: hold between push ack\n"
      "                       and WAL commit marker (testing only)\n",
      argv0);
}

bool ParseFlags(int argc, char** argv, ServeFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    std::int64_t n = 0;
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      std::exit(0);
    } else if (arg == "--enable-debug") {
      flags->enable_debug = true;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 0 || n > 65535) {
        return false;
      }
      flags->http.port = static_cast<std::uint16_t>(n);
    } else if (arg == "--bind") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->http.bind_address = v;
    } else if (arg == "--reactors") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 1 || n > 256) {
        return false;
      }
      flags->http.reactors = static_cast<int>(n);
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 1) return false;
      flags->http.workers = static_cast<int>(n);
    } else if (arg == "--io-backend") {
      const char* v = next();
      if (v == nullptr || !ParseIoBackendKind(v, &flags->http.io_backend)) {
        return false;
      }
    } else if (arg == "--pin-cores") {
      flags->http.pin_reactors = true;
    } else if (arg == "--queue-capacity") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 1) return false;
      flags->http.queue_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 1) return false;
      flags->engine.shards = static_cast<std::size_t>(n);
    } else if (arg == "--footprint") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 16) return false;
      flags->engine.footprint_bound = n;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n)) return false;
      flags->engine.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--cache-stale-ops") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 1) return false;
      flags->engine.cache_max_stale_ops = n;
    } else if (arg == "--cache-stale-ms") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 0) return false;
      flags->engine.cache_max_stale_interval = std::chrono::milliseconds(n);
    } else if (arg == "--refresh-mode") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string_view mode(v);
      if (mode == "inline") {
        flags->refresh_mode = RefreshMode::kInline;
      } else if (mode == "pump") {
        flags->refresh_mode = RefreshMode::kPump;
      } else {
        return false;
      }
    } else if (arg == "--refresh-interval-ms") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 1 || n > 60000) {
        return false;
      }
      flags->refresh_interval_ms = n;
    } else if (arg == "--attr") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      std::string_view spec(v);
      double weight = 1.0;
      const std::size_t colon = spec.rfind(':');
      if (colon != std::string_view::npos) {
        if (!ParseDouble(spec.substr(colon + 1), &weight) || weight <= 0.0) {
          return false;
        }
        spec = spec.substr(0, colon);
      }
      if (spec.empty()) return false;
      flags->attrs.emplace_back(std::string(spec), weight);
    } else if (arg == "--catalog-budget") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 16) return false;
      flags->catalog_budget = n;
    } else if (arg == "--preload-zipf") {
      const char* v = next();
      if (v == nullptr) return false;
      // N,DOMAIN,ALPHA,SEED
      std::string spec(v);
      std::vector<std::string_view> parts;
      std::string_view rest(spec);
      while (true) {
        const std::size_t comma = rest.find(',');
        parts.push_back(rest.substr(0, comma));
        if (comma == std::string_view::npos) break;
        rest = rest.substr(comma + 1);
      }
      std::int64_t seed = 0;
      if (parts.size() != 4 || !ParseInt64(parts[0], &flags->preload_n) ||
          !ParseInt64(parts[1], &flags->preload_domain) ||
          !ParseDouble(parts[2], &flags->preload_alpha) ||
          !ParseInt64(parts[3], &seed) || flags->preload_n < 0 ||
          flags->preload_domain < 1 || flags->preload_alpha < 0.0) {
        return false;
      }
      flags->preload_seed = static_cast<std::uint64_t>(seed);
    } else if (arg == "--role") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string_view role(v);
      if (role == "single") {
        flags->role = ClusterRole::kSingle;
      } else if (role == "ingest") {
        flags->role = ClusterRole::kIngest;
      } else if (role == "aggregator") {
        flags->role = ClusterRole::kAggregator;
      } else {
        return false;
      }
    } else if (arg == "--node-id") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      flags->node_id = v;
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      flags->data_dir = v;
    } else if (arg == "--push-to") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string_view spec(v);
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string_view::npos || colon == 0 ||
          !ParseInt64(spec.substr(colon + 1), &n) || n < 1 || n > 65535) {
        return false;
      }
      flags->push_host = std::string(spec.substr(0, colon));
      flags->push_port = static_cast<std::uint16_t>(n);
    } else if (arg == "--push-interval-ms") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 1) return false;
      flags->push_interval_ms = n;
    } else if (arg == "--checkpoint-ops") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 0) return false;
      flags->checkpoint_ops = n;
    } else if (arg == "--push-retries") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 1) return false;
      flags->push_retries = n;
    } else if (arg == "--push-backoff-ms") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 0) return false;
      flags->push_backoff_ms = n;
    } else if (arg == "--debug-commit-hold-ms") {
      const char* v = next();
      if (v == nullptr || !ParseInt64(v, &n) || n < 0 || n > 60000) {
        return false;
      }
      flags->debug_commit_hold_ms = n;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(arg).c_str());
      return false;
    }
  }
  return true;
}

int ServeMain(int argc, char** argv) {
  ServeFlags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage(argv[0]);
    return 2;
  }

  // Block SIGTERM/SIGINT in every thread; the main thread sigwait()s below
  // so signals become a plain synchronous drain instead of an async handler.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  signal(SIGPIPE, SIG_IGN);

  if (flags.role != ClusterRole::kSingle) {
    if (!flags.attrs.empty()) {
      std::fprintf(stderr, "cluster roles do not serve --attr catalogs\n");
      return 2;
    }
    // Cluster roles maintain only the mergeable + persistable synopses
    // (traditional + concise): only those can ship as deltas.
    static_cast<SynopsisSelection&>(flags.engine) = ClusterSelection();
  }
  if (flags.role == ClusterRole::kIngest &&
      (flags.data_dir.empty() || flags.push_port == 0)) {
    std::fprintf(stderr,
                 "--role ingest requires --data-dir and --push-to\n");
    return 2;
  }

  const bool pump_mode = flags.refresh_mode == RefreshMode::kPump;
  // In pump mode the query path must never refresh: warmed Get() serves
  // the current epoch by pointer copy and only the pump's SettleCaches()
  // re-merges.
  flags.engine.external_refresh = pump_mode;

  ServingEngine engine(flags.engine);

  std::unique_ptr<DeltaAcceptor> acceptor;
  std::unique_ptr<IngestReplicator> replicator;
  if (flags.role == ClusterRole::kAggregator) {
    acceptor = std::make_unique<DeltaAcceptor>(engine.mutable_registry());
  } else if (flags.role == ClusterRole::kIngest) {
    IngestReplicatorOptions cluster_options;
    cluster_options.node_id = flags.node_id;
    cluster_options.data_dir = flags.data_dir;
    cluster_options.node_seed = flags.engine.seed;
    cluster_options.push_attempts = static_cast<int>(flags.push_retries);
    cluster_options.push_backoff =
        std::chrono::milliseconds(flags.push_backoff_ms);
    cluster_options.debug_commit_hold =
        std::chrono::milliseconds(flags.debug_commit_hold_ms);
    cluster_options.push_transport =
        [host = flags.push_host,
         port = flags.push_port](const std::vector<std::uint8_t>& bytes) {
          return HttpPostBlocking(host, port, "/cluster/push", bytes);
        };
    replicator = std::make_unique<IngestReplicator>(
        engine.mutable_registry(),
        MakeClusterDeltaFactory(flags.engine.footprint_bound),
        std::move(cluster_options));
    const Status init = replicator->Init();
    if (!init.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   std::string(init.message()).c_str());
      return 1;
    }
    const IngestReplicator::Stats recovered = replicator->GetStats();
    std::fprintf(stderr,
                 "node %s recovered: op_count=%lld checkpoint=%d "
                 "wal_ops=%lld pending=%d\n",
                 flags.node_id.c_str(),
                 static_cast<long long>(recovered.op_count),
                 recovered.recovered_checkpoint ? 1 : 0,
                 static_cast<long long>(recovered.recovered_ops),
                 recovered.pending ? 1 : 0);
  }

  if (flags.preload_n > 0) {
    const std::vector<Value> values =
        ZipfValues(flags.preload_n, flags.preload_domain, flags.preload_alpha,
                   flags.preload_seed);
    if (replicator != nullptr) {
      const Status status = replicator->Ingest(values);
      if (!status.ok()) {
        std::fprintf(stderr, "preload failed: %s\n",
                     std::string(status.message()).c_str());
        return 1;
      }
    } else {
      engine.InsertBatch(values);
    }
    std::fprintf(stderr, "preloaded %lld Zipf(%.2f) values over [1, %lld]\n",
                 static_cast<long long>(flags.preload_n), flags.preload_alpha,
                 static_cast<long long>(flags.preload_domain));
  }

  std::unique_ptr<SynopsisCatalog> catalog;
  if (!flags.attrs.empty()) {
    CatalogOptions catalog_options;
    catalog_options.seed = flags.engine.seed;
    catalog_options.cache_max_stale_ops = flags.engine.cache_max_stale_ops;
    catalog_options.cache_max_stale_interval =
        flags.engine.cache_max_stale_interval;
    catalog_options.external_refresh = pump_mode;
    catalog = std::make_unique<SynopsisCatalog>(flags.catalog_budget,
                                                catalog_options);
    for (const auto& [name, weight] : flags.attrs) {
      AttributeOptions attr_options;
      attr_options.weight = weight;
      const Status status = catalog->RegisterAttribute(name, attr_options);
      if (!status.ok()) {
        std::fprintf(stderr, "bad --attr %s: %s\n", name.c_str(),
                     std::string(status.message()).c_str());
        return 2;
      }
    }
    const Status sealed = catalog->Seal();
    if (!sealed.ok()) {
      std::fprintf(stderr, "catalog seal failed: %s\n",
                   std::string(sealed.message()).c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "catalog: %zu attributes under a %lld-word budget\n",
                 catalog->attribute_count(),
                 static_cast<long long>(catalog->budget()));
  }

  // The pump owns one refresh domain per registry: the engine's, plus
  // each catalog attribute's (a slow attribute merge must not delay the
  // stream's cadence).  Domains are registered up front; threads spawn
  // only in pump mode.
  EpochPumpOptions pump_options;
  pump_options.interval = std::chrono::milliseconds(flags.refresh_interval_ms);
  EpochPump pump(pump_options);
  if (pump_mode) {
    pump.AddDomain(
        "stream", [&engine] { return engine.AnyCacheStale(); },
        [&engine] { engine.SettleCaches(); });
    if (catalog != nullptr) {
      for (const auto& [name, weight] : flags.attrs) {
        const SynopsisRegistry* registry = catalog->registry(name);
        if (registry == nullptr) continue;
        pump.AddDomain(
            name, [registry] { return registry->AnyCacheStale(); },
            [registry] { registry->SettleCaches(); });
      }
    }
  }

  HttpServer server(flags.http);
  RouteConfig routes;
  routes.enable_debug = flags.enable_debug;
  routes.replicator = replicator.get();
  routes.refresh_mode = flags.refresh_mode;
  routes.pump = pump_mode ? &pump : nullptr;
  RegisterServingRoutes(server, engine, routes);
  if (catalog != nullptr) {
    RegisterCatalogRoutes(server, *catalog, flags.refresh_mode);
  }
  RegisterQueryRoutes(server, engine, catalog.get(), flags.refresh_mode);
  if (flags.role != ClusterRole::kSingle) {
    ClusterRouteConfig cluster_routes;
    cluster_routes.role = flags.role;
    cluster_routes.acceptor = acceptor.get();
    cluster_routes.replicator = replicator.get();
    RegisterClusterRoutes(server, engine, cluster_routes);
  }
  const Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 std::string(status.message()).c_str());
    return 1;
  }
  // The e2e test and scripts parse this exact line to learn the port.
  std::printf("aqua_serve listening on %s:%u\n",
              flags.http.bind_address.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (pump_mode) pump.Start();
  if (replicator != nullptr) {
    replicator->StartPusher(
        std::chrono::milliseconds(flags.push_interval_ms),
        flags.checkpoint_ops);
  }

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "signal %d: draining\n", sig);
  pump.Stop();
  if (replicator != nullptr) {
    replicator->StopPusher();
    // Best-effort final flush so a graceful stop ships everything the node
    // observed; a failure just leaves it pending for the next incarnation.
    (void)replicator->PushNow();
  }
  server.Shutdown();
  return 0;
}

}  // namespace
}  // namespace aqua

int main(int argc, char** argv) { return aqua::ServeMain(argc, argv); }
