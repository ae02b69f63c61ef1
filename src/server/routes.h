#ifndef AQUA_SERVER_ROUTES_H_
#define AQUA_SERVER_ROUTES_H_

#include "server/server.h"
#include "server/serving_engine.h"
#include "warehouse/catalog.h"

namespace aqua {

class IngestReplicator;
class EpochPump;

/// Who runs epoch refreshes (snapshot re-merges + frozen-view builds).
enum class RefreshMode {
  /// The first request past a staleness bound settles the caches inline
  /// (inside the route's scoped epoch) before its epoch is read — refresh
  /// cost lands on a query thread at every epoch boundary.
  kInline,
  /// A background EpochPump owns every SettleCaches() call; the scoped
  /// epoch sources only *read* epochs, so a query thread never executes a
  /// re-merge.  Requires the engine/catalog to be built with
  /// external_refresh so warmed Get() never refreshes either.
  kPump,
};

/// Per-deployment knobs for the serving routes (everything else is wired
/// from the engine/catalog objects themselves).
struct RouteConfig {
  /// Expose GET /debug/sleep?ms= (worker-dispatched; testing only).
  bool enable_debug = false;
  /// Cluster ingest role: when set, POST /ingest routes through the
  /// replicator (WAL-ahead, delta accumulation) instead of straight into
  /// the engine — the durability contract only holds if every ingest path
  /// goes through the log.
  IngestReplicator* replicator = nullptr;
  /// Refresh ownership for the cacheable routes' scoped epoch sources.
  RefreshMode refresh_mode = RefreshMode::kInline;
  /// The pump whose stats /stats reports (null when refresh_mode is
  /// inline).
  const EpochPump* pump = nullptr;
};

/// Registers the single-relation query/ingest surface on `server`:
///
///   GET  /healthz /hotlist /frequency /count_where /quantile /distinct
///   GET  /stats   (live counters; never cached)
///   POST /ingest /delete
///
/// Every query GET is an unbounded plan (RunPlannedQueryInto) on the
/// engine's registry.  Every GET handler runs inline on its reactor and
/// renders into the reactor's reused response scratch with zero
/// allocations once warm: hot lists and stats fill thread-local scratch in
/// place, estimates are plain values, and the JSON writer appends straight
/// into the response body.  `engine` (and `server`, for /stats) must
/// outlive the server's serving threads — main() owns both on its stack.
void RegisterServingRoutes(HttpServer& server, ServingEngine& engine,
                           const RouteConfig& config = {});

/// Registers the multi-attribute surface, /attr/{name}/{endpoint}, over a
/// sealed catalog.  Same endpoints and allocation discipline as the
/// single-relation routes; unknown attributes answer 404.  Each attribute
/// is its own response-cache scope: an epoch advance on one attribute
/// leaves every other attribute's cached responses serving.
void RegisterCatalogRoutes(HttpServer& server, SynopsisCatalog& catalog,
                           RefreshMode refresh_mode = RefreshMode::kInline);

/// Registers the planned-query surface:
///
///   GET  /query?q=SELECT%20APPROX(COUNT(*))%20FROM%20stream%20...
///   POST /query           (the SQL statement as the request body)
///
/// Statements go through the SQL frontend (plan/sql_frontend.h) and the
/// cost/error planner (plan/planner.h): ERROR/CONFIDENCE/WITHIN bounds
/// pick the synopsis and view-vs-direct path by predicted error and
/// measured latency; unbounded statements reproduce the §6 accuracy
/// ordering exactly.  FROM targets the default engine as "stream", or any
/// catalog attribute by name (404 otherwise; `catalog` may be null).  GET
/// responses are cached under the *canonical* form of the statement, so
/// every spelling of one query — clause order, ERROR 2% vs 0.02, case —
/// hits one entry.
void RegisterQueryRoutes(HttpServer& server, ServingEngine& engine,
                         SynopsisCatalog* catalog = nullptr,
                         RefreshMode refresh_mode = RefreshMode::kInline);

}  // namespace aqua

#endif  // AQUA_SERVER_ROUTES_H_
