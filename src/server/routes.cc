// The serving binary's route table, extracted from main() so the handlers
// are testable (zero-alloc pinning, e2e) without forking the process.
//
// Every query GET — /X, /attr/{name}/X and /query — is answered by
// RunPlannedQueryInto (plan/planner.h) and rendered by one answer-field
// writer.  /X and /attr/{name}/X differ only in how they find their
// registry, so they share one parameter adapter and one handler.
//
// Allocation discipline: every GET handler renders into the server-owned
// response scratch through a JsonWriter bound to response->body, and any
// non-trivial answer object (hot lists, stats) lives in thread-local
// scratch filled in place.  Once a thread has served each shape once, a
// GET request — parse, route, answer, render, serialize — touches the
// allocator zero times (pinned by tests/server/zero_alloc_test.cc).

#include "server/routes.h"

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <cmath>

#include "common/alloc_counter.h"
#include "common/result.h"
#include "plan/planner.h"
#include "plan/sql_frontend.h"
#include "server/cluster.h"
#include "server/epoch_pump.h"
#include "server/json.h"

namespace aqua {
namespace {

/// Renders {"error": message} with the given status code into the reused
/// response.  The body is already clear (the server Reset()s its scratch
/// before the handler runs), so this appends into warm capacity.
void JsonErrorInto(int code, std::string_view message,
                   HttpResponse* response) {
  response->status_code = code;
  response->body.clear();  // drop any partial render
  JsonWriter w(&response->body);
  w.BeginObject().Key("error").String(message).EndObject();
}

/// Maps a catalog Status to the HTTP layer: NotFound (unknown attribute)
/// answers 404, everything else 500.
void CatalogErrorInto(const Status& status, HttpResponse* response) {
  JsonErrorInto(status.code() == StatusCode::kNotFound ? 404 : 500,
                status.message(), response);
}

/// The answer fields every query route renders: the hot list's items or
/// the estimate with its interval, then the synopsis that answered as
/// `method`.  /X and /attr/{name}/X close the object with response_ns;
/// /query wraps the fields in its statement and plan fields.
void WriteAnswerFields(JsonWriter& w, QueryKind kind,
                       const PlannedResponse& planned) {
  if (kind == QueryKind::kHotList) {
    w.Key("items").BeginArray();
    for (const HotListItem& item : planned.hotlist) {
      w.BeginObject();
      w.Key("value").Int(item.value);
      w.Key("estimated_count").Double(item.estimated_count);
      w.Key("synopsis_count").Int(item.synopsis_count);
      w.EndObject();
    }
    w.EndArray();
  } else {
    w.Key("estimate").Double(planned.estimate.value);
    w.Key("ci_low").Double(planned.estimate.ci_low);
    w.Key("ci_high").Double(planned.estimate.ci_high);
    w.Key("confidence").Double(planned.estimate.confidence);
    w.Key("sample_points").Int(planned.estimate.sample_points);
  }
  w.Key("method").String(planned.method);
}

/// Runs `query` into thread-local scratch: the hot-list vector keeps its
/// capacity, so a warmed GET answers without allocating.
const PlannedResponse& RunPlanned(const SynopsisRegistry& registry,
                                  const PlannedQuery& query) {
  thread_local PlannedResponse planned;
  RunPlannedQueryInto(registry, query, &planned);
  return planned;
}

void WriteSynopsisStats(JsonWriter& w,
                        const std::vector<SynopsisHandleStats>& synopses) {
  w.Key("synopses").BeginArray();
  for (const SynopsisHandleStats& s : synopses) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("valid").Bool(s.valid);
    w.Key("sharded").Bool(s.sharded);
    w.Key("footprint").Int(s.footprint);
    w.Key("epoch").UInt(s.epoch);
    w.Key("has_view").Bool(s.has_view);
    w.Key("view_build_ns").Int(s.view_build_ns);
    w.Key("cache").BeginObject();
    w.Key("hits").Int(s.cache.hits);
    w.Key("refreshes").Int(s.cache.refreshes);
    w.Key("stale_served").Int(s.cache.stale_served);
    w.Key("inline_refreshes").Int(s.cache.inline_refreshes);
    w.Key("external_refreshes").Int(s.cache.external_refreshes);
    w.Key("refresh_failures").Int(s.cache.refresh_failures);
    w.Key("refresh_ns_p50").Int(s.cache.refresh_ns_p50);
    w.Key("refresh_ns_p99").Int(s.cache.refresh_ns_p99);
    w.EndObject();
    w.Key("refresh").BeginObject();
    w.Key("full_rebuilds").Int(s.refresh.full_rebuilds);
    w.Key("incremental_rebuilds").Int(s.refresh.incremental_rebuilds);
    w.Key("view_full_builds").Int(s.refresh.view_full_builds);
    w.Key("view_patched_builds").Int(s.refresh.view_patched_builds);
    w.Key("view_delta_fraction").Double(s.refresh.last_view_delta_fraction);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
}

void WritePlannerStats(
    JsonWriter& w,
    const std::array<PlannerKindStats, kNumQueryKinds>& planner) {
  w.Key("planner").BeginArray();
  for (const PlannerKindStats& p : planner) {
    w.BeginObject();
    w.Key("kind").String(p.kind);
    w.Key("synopsis").String(p.synopsis);
    w.Key("available").Bool(p.available);
    w.Key("latency_ewma_ns").Double(p.latency_ewma_ns);
    w.Key("last_achieved_error").Double(p.last_achieved_error);
    w.EndObject();
  }
  w.EndArray();
}

/// The query endpoint a path segment names (the QueryKindName vocabulary:
/// "hotlist", "count_where", ...); nullopt for anything else.
std::optional<QueryKind> EndpointKind(std::string_view endpoint) {
  for (int i = 0; i < kNumQueryKinds; ++i) {
    const QueryKind kind = static_cast<QueryKind>(i);
    if (QueryKindName(kind) == endpoint) return kind;
  }
  return std::nullopt;
}

/// The parameter adapter behind /X and /attr/{name}/X: builds `kind`'s
/// unbounded PlannedQuery from the query string, then resolves the
/// relation's registry from `lookup` (the engine's, or the catalog's
/// lookup of the attribute).  Parameters are checked first, so a malformed
/// request to an unknown attribute answers 400, not 404.  Returns null
/// after rendering the error.
const SynopsisRegistry* AdaptRouteQuery(
    QueryKind kind, const HttpRequest& request,
    const Result<const SynopsisRegistry*>& lookup, PlannedQuery* query,
    HttpResponse* response) {
  query->kind = kind;
  switch (kind) {
    case QueryKind::kHotList: {
      const auto k = request.QueryInt("k", 10);
      const auto beta = request.QueryDouble("beta", 3.0);
      if (!k.has_value() || *k < 0 || !beta.has_value() || *beta < 0) {
        JsonErrorInto(400, "k and beta must be nonnegative numbers", response);
        return nullptr;
      }
      query->k = *k;
      query->beta = *beta;
      break;
    }
    case QueryKind::kFrequency: {
      const auto value = request.QueryInt("value", /*fallback=*/0);
      if (!value.has_value() || !request.QueryParam("value").has_value()) {
        JsonErrorInto(400, "missing or malformed ?value=", response);
        return nullptr;
      }
      query->value = *value;
      break;
    }
    case QueryKind::kCountWhere: {
      const auto low =
          request.QueryInt("low", std::numeric_limits<std::int64_t>::min());
      const auto high =
          request.QueryInt("high", std::numeric_limits<std::int64_t>::max());
      const auto confidence = request.QueryDouble("confidence", 0.95);
      if (!low.has_value() || !high.has_value() || !confidence.has_value() ||
          *confidence <= 0.0 || *confidence >= 1.0) {
        JsonErrorInto(400,
                      "malformed ?low=/?high=/?confidence= (confidence in "
                      "(0,1))",
                      response);
        return nullptr;
      }
      query->range.low = *low;
      query->range.high = *high;
      query->bound.confidence = *confidence;
      break;
    }
    case QueryKind::kDistinct:
      break;
    case QueryKind::kQuantile: {
      const auto q = request.QueryDouble("q", 0.5);
      const auto confidence = request.QueryDouble("confidence", 0.95);
      if (!q.has_value() || *q < 0.0 || *q > 1.0 || !confidence.has_value() ||
          *confidence <= 0.0 || *confidence >= 1.0) {
        JsonErrorInto(
            400,
            "malformed ?q=/?confidence= (q in [0,1], confidence in (0,1))",
            response);
        return nullptr;
      }
      query->q = *q;
      query->bound.confidence = *confidence;
      break;
    }
  }
  if (!lookup.ok()) {
    CatalogErrorInto(lookup.status(), response);
    return nullptr;
  }
  return lookup.ValueOrDie();
}

/// The one handler behind /X and /attr/{name}/X: adapts the request, runs
/// the unbounded plan and renders the answer.
void HandleRouteQuery(QueryKind kind, const HttpRequest& request,
                      const Result<const SynopsisRegistry*>& lookup,
                      HttpResponse* response) {
  PlannedQuery query;
  const SynopsisRegistry* registry =
      AdaptRouteQuery(kind, request, lookup, &query, response);
  if (registry == nullptr) return;
  const PlannedResponse& planned = RunPlanned(*registry, query);
  JsonWriter w(&response->body);
  w.BeginObject();
  WriteAnswerFields(w, kind, planned);
  w.Key("response_ns").Int(planned.response_ns);
  w.EndObject();
}

/// Resolves one registry's scoped cache epoch for a cacheable request.
///
/// Inline mode keeps the old freshness contract: a stale snapshot cache is
/// settled here (the re-merge runs on this query thread, at most once per
/// staleness window), and an epoch that will not settle — a failing
/// refresher — answers nullopt so the request serves uncached.  Pump mode
/// never settles: with external_refresh set, a stale warmed Get() serves
/// the previous epoch's snapshot by pointer copy, so cached bytes keyed on
/// the current (pre-advance) epoch are exactly what the handler would
/// render — the source is a pure epoch read and query threads never pay a
/// re-merge.
std::optional<RouteOptions::ScopedEpoch> RegistryScopedEpoch(
    const SynopsisRegistry* registry, std::string_view scope,
    RefreshMode mode) {
  if (registry == nullptr) return std::nullopt;
  if (mode == RefreshMode::kInline) {
    if (registry->AnyCacheStale()) registry->SettleCaches();
    if (registry->AnyCacheStale()) return std::nullopt;
  }
  return RouteOptions::ScopedEpoch{scope, registry->ServingEpoch()};
}

}  // namespace

void RegisterServingRoutes(HttpServer& server, ServingEngine& engine,
                           const RouteConfig& config) {
  // Query routes are cacheable: within one serving epoch the synopsis is
  // frozen, so identical requests have byte-identical responses.  The
  // engine's registry is one cache scope ("stream"): its epoch advances
  // only invalidate these routes' entries, never a catalog attribute's.
  RouteOptions cacheable;
  cacheable.scoped_epoch = [&engine, mode = config.refresh_mode](
                               const HttpRequest&) {
    return RegistryScopedEpoch(&engine.registry(), "stream", mode);
  };

  server.Route("GET", "/healthz",
               [](const HttpRequest&, HttpResponse* response) {
                 response->body.append("{\"ok\":true}");
               });

  for (int i = 0; i < kNumQueryKinds; ++i) {
    const QueryKind kind = static_cast<QueryKind>(i);
    std::string path = "/";
    path.append(QueryKindName(kind));
    server.Route(
        "GET", std::move(path),
        [&engine, kind](const HttpRequest& request, HttpResponse* response) {
          HandleRouteQuery(kind, request, &engine.registry(), response);
        },
        cacheable);
  }

  // /stats is deliberately NOT cacheable: it reports live counters.
  server.Route(
      "GET", "/stats",
      [&engine, &server, mode = config.refresh_mode,
       pump = config.pump](const HttpRequest&, HttpResponse* response) {
        thread_local ServingEngine::Stats stats;
        engine.GetStatsInto(&stats);
        const HttpServer::ServerStats http = server.Stats();
        JsonWriter w(&response->body);
        w.BeginObject();
        w.Key("inserts").Int(stats.inserts);
        w.Key("deletes").Int(stats.deletes);
        w.Key("concise_valid").Bool(stats.concise_valid);
        w.Key("shards").UInt(stats.shards);
        w.Key("footprint_bound").Int(stats.footprint_bound);
        w.Key("epoch").UInt(stats.epoch);
        w.Key("refresh_mode")
            .String(mode == RefreshMode::kPump ? "pump" : "inline");
        if (pump != nullptr) {
          const EpochPump::Stats ps = pump->GetStats();
          w.Key("pump").BeginObject();
          w.Key("running").Bool(pump->running());
          w.Key("domains").UInt(ps.domains);
          w.Key("ticks").Int(ps.ticks);
          w.Key("refreshes").Int(ps.refreshes);
          w.Key("backlog").Int(ps.backlog);
          w.Key("max_backlog").Int(ps.max_backlog);
          w.EndObject();
        }
        // Global operator-new calls since process start; 0 unless built
        // with -DAQUA_COUNT_GLOBAL_ALLOCS=ON.  CI samples this around a
        // warmed GET window to assert allocs_per_request == 0.
        w.Key("allocs_total").Int(GlobalAllocCount());
        w.Key("alloc_counting").Bool(GlobalAllocCountingEnabled());
        WriteSynopsisStats(w, stats.synopses);
        WritePlannerStats(w, stats.planner);
        w.Key("http").BeginObject();
        w.Key("accepted").Int(http.accepted);
        w.Key("requests").Int(http.requests);
        w.Key("responses_503").Int(http.responses_503);
        w.Key("bad_requests").Int(http.bad_requests);
        w.Key("queue_depth").UInt(http.queue_depth);
        w.Key("reactors").UInt(http.reactors);
        w.Key("cache_hits").Int(http.cache_hits);
        w.Key("cache_misses").Int(http.cache_misses);
        w.Key("cache_bypass").Int(http.cache_bypass);
        w.Key("cache_invalidations").Int(http.cache_invalidations);
        w.Key("cache_stale_evictions").Int(http.cache_stale_evictions);
        w.Key("reactors_pinned").Int(http.reactors_pinned);
        w.Key("io").BeginObject();
        w.Key("syscalls").Int(http.io.syscalls);
        w.Key("direct_sends").Int(http.io.direct_sends);
        w.Key("coalesced_responses").Int(http.io.coalesced_responses);
        w.Key("copied_sends").Int(http.io.copied_sends);
        w.Key("copied_bytes").Int(http.io.copied_bytes);
        w.Key("bytes_sent").Int(http.io.bytes_sent);
        w.Key("bytes_received").Int(http.io.bytes_received);
        w.EndObject();
        w.EndObject();
        w.EndObject();
      });

  server.Route(
      "POST", "/ingest",
      [&engine, replicator = config.replicator](const HttpRequest& request,
                                                HttpResponse* response) {
        Result<std::vector<Value>> values = ParseValueArray(request.body);
        if (!values.ok()) {
          JsonErrorInto(400, values.status().message(), response);
          return;
        }
        if (replicator != nullptr) {
          // Cluster ingest: WAL-ahead through the replicator (which feeds
          // the same engine registry, so queries see the batch too).
          const Status status = replicator->Ingest(values.ValueOrDie());
          if (!status.ok()) {
            JsonErrorInto(500, status.message(), response);
            return;
          }
        } else {
          engine.InsertBatch(values.ValueOrDie());
        }
        JsonWriter w(&response->body);
        w.BeginObject();
        w.Key("ingested").UInt(values.ValueOrDie().size());
        w.Key("total_inserts").Int(engine.observed_inserts());
        w.EndObject();
      });

  server.Route(
      "POST", "/delete",
      [&engine](const HttpRequest& request, HttpResponse* response) {
        Result<std::vector<Value>> values = ParseValueArray(request.body);
        if (!values.ok()) {
          JsonErrorInto(400, values.status().message(), response);
          return;
        }
        for (Value v : values.ValueOrDie()) {
          const Status status = engine.Delete(v);
          if (!status.ok()) {
            JsonErrorInto(409, status.message(), response);
            return;
          }
        }
        JsonWriter w(&response->body);
        w.BeginObject();
        w.Key("deleted").UInt(values.ValueOrDie().size());
        w.Key("total_deletes").Int(engine.observed_deletes());
        w.EndObject();
      });

  if (config.enable_debug) {
    // Deterministic worker occupancy for overload tests: holds a worker
    // thread for ?ms= milliseconds before answering.  Explicitly
    // worker-dispatched — a blocking GET must never stall a reactor.
    RouteOptions on_worker;
    on_worker.dispatch = RouteOptions::Dispatch::kWorker;
    server.Route(
        "GET", "/debug/sleep",
        [](const HttpRequest& request, HttpResponse* response) {
          const auto ms = request.QueryInt("ms", 100);
          if (!ms.has_value() || *ms < 0 || *ms > 10000) {
            JsonErrorInto(400, "ms must be in [0, 10000]", response);
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
          JsonWriter w(&response->body);
          w.BeginObject().Key("slept_ms").Int(*ms).EndObject();
        },
        on_worker);
  }
}

namespace {

/// Splits "/attr/{name}/{endpoint}" into its two view components (both
/// alias request.path, valid for the handler's duration).
std::optional<std::pair<std::string_view, std::string_view>> SplitAttrPath(
    std::string_view path) {
  constexpr std::string_view kPrefix = "/attr/";
  std::string_view rest = path;
  rest.remove_prefix(kPrefix.size());
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos || slash == 0) return std::nullopt;
  const std::string_view endpoint = rest.substr(slash + 1);
  if (endpoint.empty() || endpoint.find('/') != std::string_view::npos) {
    return std::nullopt;
  }
  return std::make_pair(rest.substr(0, slash), endpoint);
}

void HandleCatalogGet(const SynopsisCatalog& catalog,
                      std::string_view attribute, std::string_view endpoint,
                      const HttpRequest& request, HttpResponse* response) {
  if (const std::optional<QueryKind> kind = EndpointKind(endpoint)) {
    return HandleRouteQuery(*kind, request, catalog.RegistryFor(attribute),
                            response);
  }
  if (endpoint == "stats") {
    thread_local RegistryStats stats;
    const Status status = catalog.StatsForInto(attribute, &stats);
    if (!status.ok()) return CatalogErrorInto(status, response);
    const SynopsisRegistry* registry = catalog.registry(attribute);
    JsonWriter w(&response->body);
    w.BeginObject();
    w.Key("attribute").String(attribute);
    w.Key("inserts").Int(stats.inserts);
    w.Key("deletes").Int(stats.deletes);
    w.Key("share_words").Int(catalog.ShareOf(attribute));
    w.Key("epoch").UInt(registry != nullptr ? registry->ServingEpoch() : 0);
    WriteSynopsisStats(w, stats.synopses);
    WritePlannerStats(w, stats.planner);
    w.EndObject();
    return;
  }
  JsonErrorInto(404, "no such endpoint", response);
}

void HandleCatalogPost(SynopsisCatalog& catalog, std::string_view attribute,
                       std::string_view endpoint, const HttpRequest& request,
                       HttpResponse* response) {
  if (endpoint != "ingest" && endpoint != "delete") {
    return JsonErrorInto(404, "no such endpoint", response);
  }
  Result<std::vector<Value>> values = ParseValueArray(request.body);
  if (!values.ok()) {
    return JsonErrorInto(400, values.status().message(), response);
  }
  // The mutating surface routes through std::string keys (ingest is the
  // allocating path anyway — ParseValueArray just built a vector).
  const std::string name(attribute);
  if (endpoint == "ingest") {
    const Status status = catalog.InsertBatch(name, values.ValueOrDie());
    if (!status.ok()) return CatalogErrorInto(status, response);
    JsonWriter w(&response->body);
    w.BeginObject();
    w.Key("attribute").String(attribute);
    w.Key("ingested").UInt(values.ValueOrDie().size());
    w.EndObject();
    return;
  }
  for (Value v : values.ValueOrDie()) {
    StreamOp op;
    op.kind = StreamOp::Kind::kDelete;
    op.value = v;
    const Status status = catalog.Observe(name, op);
    if (!status.ok()) {
      if (status.code() == StatusCode::kNotFound) {
        return CatalogErrorInto(status, response);
      }
      return JsonErrorInto(409, status.message(), response);
    }
  }
  JsonWriter w(&response->body);
  w.BeginObject();
  w.Key("attribute").String(attribute);
  w.Key("deleted").UInt(values.ValueOrDie().size());
  w.EndObject();
}

}  // namespace

void RegisterCatalogRoutes(HttpServer& server, SynopsisCatalog& catalog,
                           RefreshMode refresh_mode) {
  // Catalog queries are cacheable like the engine's, except the live
  // /attr/{name}/stats endpoint, which the predicate carves out.  Each
  // attribute is its own cache scope, keyed on *its* registry's epoch —
  // ingest into attribute A advances only A's scope, so B's warmed
  // entries keep hitting (the surgical-invalidation contract, pinned by
  // tests/server/response_cache_test.cc and e2e_http_test.cc).
  RouteOptions cacheable;
  cacheable.cacheable_if = [](const HttpRequest& request) {
    return !request.path.ends_with("/stats");
  };
  cacheable.scoped_epoch =
      [&catalog, refresh_mode](const HttpRequest& request)
      -> std::optional<RouteOptions::ScopedEpoch> {
    const auto parts = SplitAttrPath(request.path);
    if (!parts.has_value()) return std::nullopt;
    // parts->first aliases request.path — stable for the handler call.
    return RegistryScopedEpoch(catalog.registry(parts->first), parts->first,
                               refresh_mode);
  };

  server.RoutePrefix(
      "GET", "/attr/",
      [&catalog](const HttpRequest& request, HttpResponse* response) {
        const auto parts = SplitAttrPath(request.path);
        if (!parts.has_value()) {
          return JsonErrorInto(404, "expected /attr/{name}/{endpoint}",
                               response);
        }
        HandleCatalogGet(catalog, parts->first, parts->second, request,
                         response);
      },
      cacheable);
  server.RoutePrefix(
      "POST", "/attr/",
      [&catalog](const HttpRequest& request, HttpResponse* response) {
        const auto parts = SplitAttrPath(request.path);
        if (!parts.has_value()) {
          return JsonErrorInto(404, "expected /attr/{name}/{endpoint}",
                               response);
        }
        HandleCatalogPost(catalog, parts->first, parts->second, request,
                          response);
      });
}

namespace {

/// FROM resolution: the default engine by the reserved name "stream", any
/// catalog attribute by name otherwise.
const SynopsisRegistry* ResolveQueryTarget(const ServingEngine& engine,
                                           const SynopsisCatalog* catalog,
                                           std::string_view target) {
  if (target == "stream") return &engine.registry();
  if (catalog != nullptr) return catalog->registry(target);
  return nullptr;
}

void WritePlannedResponse(const ParsedSqlQuery& parsed,
                          const PlannedResponse& planned,
                          HttpResponse* response) {
  JsonWriter w(&response->body);
  w.BeginObject();
  w.Key("kind").String(QueryKindName(parsed.query.kind));
  w.Key("target").String(parsed.target);
  // `method` matches the dedicated routes' tag (the synopsis name);
  // `synopsis` and `path` spell the planner's choice out explicitly.
  WriteAnswerFields(w, parsed.query.kind, planned);
  w.Key("synopsis").String(planned.method);
  w.Key("path").String(planned.used_view ? "view" : "direct");
  if (std::isfinite(planned.achieved_error)) {
    w.Key("achieved_error").Double(planned.achieved_error);
  }
  if (std::isfinite(planned.predicted_error)) {
    w.Key("predicted_error").Double(planned.predicted_error);
  }
  if (parsed.has_error) {
    w.Key("requested_error").Double(parsed.query.bound.max_error);
    w.Key("met_error").Bool(planned.met_error);
  }
  if (parsed.has_deadline) {
    w.Key("deadline_ns").Int(parsed.query.bound.deadline_ns);
    w.Key("predicted_ns").Double(planned.predicted_ns);
    w.Key("met_deadline").Bool(planned.met_deadline);
  }
  w.Key("response_ns").Int(planned.response_ns);
  w.EndObject();
}

void HandleSqlStatement(const ServingEngine& engine,
                        const SynopsisCatalog* catalog,
                        std::string_view text, HttpResponse* response) {
  ParsedSqlQuery parsed;
  const Status status = ParseSqlQuery(text, &parsed);
  if (!status.ok()) {
    return JsonErrorInto(400, status.message(), response);
  }
  const SynopsisRegistry* registry =
      ResolveQueryTarget(engine, catalog, parsed.target);
  if (registry == nullptr) {
    return JsonErrorInto(404, "unknown relation", response);
  }
  WritePlannedResponse(parsed, RunPlanned(*registry, parsed.query),
                       response);
}

}  // namespace

void RegisterQueryRoutes(HttpServer& server, ServingEngine& engine,
                         SynopsisCatalog* catalog, RefreshMode refresh_mode) {
  RouteOptions cacheable;
  // Cache under the canonical statement, not the raw text: clause order,
  // percent spellings and keyword case all collapse to one entry.
  // Unparseable statements serve uncached (the 400 is never stored).
  cacheable.canonical_key = [](const HttpRequest& request,
                               std::string* out) {
    const auto q = request.QueryParam("q");
    if (!q.has_value()) return false;
    ParsedSqlQuery parsed;
    if (!ParseSqlQuery(*q, &parsed).ok()) return false;
    AppendCanonicalSqlKey(parsed, out);
    return true;
  };
  // Scope a cached /query entry to its FROM target's registry — the same
  // scope names the dedicated routes use ("stream" or the attribute), so
  // /query and /attr/{name}/... share one invalidation domain per
  // relation.  parsed.target aliases the request's query text.
  cacheable.scoped_epoch =
      [&engine, catalog, refresh_mode](const HttpRequest& request)
      -> std::optional<RouteOptions::ScopedEpoch> {
    const auto q = request.QueryParam("q");
    if (!q.has_value()) return std::nullopt;
    ParsedSqlQuery parsed;
    if (!ParseSqlQuery(*q, &parsed).ok()) return std::nullopt;
    return RegistryScopedEpoch(ResolveQueryTarget(engine, catalog,
                                                  parsed.target),
                               parsed.target, refresh_mode);
  };

  server.Route(
      "GET", "/query",
      [&engine, catalog](const HttpRequest& request, HttpResponse* response) {
        const auto q = request.QueryParam("q");
        if (!q.has_value()) {
          return JsonErrorInto(400, "missing ?q=", response);
        }
        HandleSqlStatement(engine, catalog, *q, response);
      },
      cacheable);

  // POST /query takes the statement as the body (no percent-encoding
  // gymnastics for ad-hoc clients); mutating-path dispatch, never cached.
  server.Route(
      "POST", "/query",
      [&engine, catalog](const HttpRequest& request, HttpResponse* response) {
        HandleSqlStatement(engine, catalog, request.body, response);
      });
}

}  // namespace aqua
