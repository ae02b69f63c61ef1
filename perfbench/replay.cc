// perfbench_replay: the traced replay behind the benchmark's per-layer
// metrics.
//
// It builds a workload's state in-process from the same seed and preload as
// an untraced run (workload.h), then replays the workload's requests and
// ingest batches through the library's public functions in the order
// routes.cc and server.cc call them, recording a span around each call:
//
//   GET:   HttpRequestParser::Feed/TakeRequest, the route's scoped epoch
//          (ParseSqlQuery for /query; an inline settle when one is due),
//          ResponseCache::BuildKey/BuildKeyWith (ParseSqlQuery +
//          AppendCanonicalSqlKey for /query), LookupPinned, and on a miss
//          the handler (ServingEngine answers, SynopsisCatalog::*For,
//          ParseSqlQuery + RunPlannedQueryInto), SerializeHeadInto, the
//          scoped epoch again, Store.  A /query hit parses twice, a miss
//          four times, as in the server.
//   POST:  Feed/TakeRequest, ParseValueArray, SynopsisRegistry::InsertBatch
//          or SynopsisCatalog::InsertBatch.
//   Epoch refresh: handle_at(i)->SettleCache() per synopsis, with the view
//          build (ViewBuildNs) as its child.
//
// The same batches also go, each through its own copy of the state, to
// handle_at(i)->InsertBatch (partition + locks + kernel), to each synopsis's
// own batch insert (kernel alone), and to a registry fed by two producer
// threads.  Refresh follows the workload's virtual clock: under inline
// refresh the first query at least 100 ms (virtual) after the last settle of
// its registry settles it, as the server's scoped epoch does; under pump
// refresh a settle runs every 20 ms tick once due.  That is why the
// registries here are built with external refresh and an always-stale
// interval: the replay, not the wall clock, decides when an epoch advances.
//
// Spans stay in memory.  At exit the replay writes every span (name, start,
// end, parent, request id) to --spans and one JSON object of aggregates,
// self time and units of work per span name, to stdout.  Self time is a
// span's duration minus the part its children cover.
//
//   perfbench_replay --workload NAME --seed N --seconds S [--spans FILE]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/concise_sample.h"
#include "core/counting_sample.h"
#include "plan/planner.h"
#include "plan/sql_frontend.h"
#include "registry/builtin.h"
#include "sample/reservoir_sample.h"
#include "server/http.h"
#include "server/json.h"
#include "server/response_cache.h"
#include "server/serving_engine.h"
#include "sketch/flajolet_martin.h"
#include "warehouse/catalog.h"
#include "workload.h"

namespace perfbench {
namespace {

using aqua::HttpRequest;
using aqua::HttpResponse;
using aqua::JsonWriter;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t child_ns = 0;
  std::int32_t parent = -1;
  std::int32_t request = -1;
  std::int64_t work = 1;
};

struct Aggregate {
  std::int64_t self_ns = 0;
  std::int64_t spans = 0;
  std::int64_t work = 0;
};

/// Span storage in fixed-size chunks that never move.  Chunks are allocated
/// and their pages touched by Reserve, which the tracer calls only while no
/// span is open, so neither an allocation nor a first-touch page fault ever
/// lands in a span's time.
class SpanStore {
 public:
  Span& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  const Span& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  std::size_t size() const { return size_; }

  /// Makes room for `n` more spans.
  void Reserve(std::size_t n) {
    while (chunks_.size() * kChunk < size_ + n) {
      // Value-initialised, so every page is written now.
      chunks_.push_back(std::make_unique<Span[]>(kChunk));
    }
  }

  std::size_t Add(const Span& span) {
    Reserve(1);
    (*this)[size_] = span;
    return size_++;
  }

 private:
  /// Small enough that touching a new chunk costs in proportion to the
  /// spans it holds, even in a short replay.
  static constexpr std::size_t kChunk = 1 << 12;
  std::vector<std::unique_ptr<Span[]>> chunks_;
  std::size_t size_ = 0;
};

/// Single-threaded span recorder.  Disabled, it reads no clock and records
/// nothing, which is how the replay measures its own overhead.  Span names
/// are string literals or interned (Intern) so recording never allocates.
class Tracer {
 public:
  /// Room reserved before each root span: far more than the spans of one
  /// request, settle or batch (a /query miss with two settles makes ~40).
  static constexpr std::size_t kRootHeadroom = 256;

  /// A stable copy of a name built at run time.
  const char* Intern(const std::string& name) {
    return names_.insert(name).first->c_str();
  }

  int Begin(const char* name, std::int64_t work) {
    if (!enabled_) return -1;
    if (stack_.empty()) spans_.Reserve(kRootHeadroom);
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request_;
    span.work = work;
    const int id = static_cast<int>(spans_.Add(span));
    stack_.push_back(id);
    spans_[id].start = NowNs();
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    Span& span = spans_[id];
    span.end = NowNs();
    stack_.pop_back();
    if (span.parent >= 0) spans_[span.parent].child_ns += span.end - span.start;
  }

  /// Records a child of the open span whose duration the library measured
  /// itself (a view build inside a settle), ending where the parent is now.
  void Measured(const char* name, std::int64_t ns) {
    if (!enabled_ || stack_.empty() || ns <= 0) return;
    Span span;
    span.name = name;
    span.parent = stack_.back();
    span.request = request_;
    span.end = NowNs();
    span.start = span.end - ns;
    spans_[span.parent].child_ns += ns;
    spans_.Add(span);
  }

  /// Spans begun from here on belong to a new request id (or to none: the
  /// pump, set-up).
  void NewRequest() { request_ = next_request_++; }
  void NoRequest() { request_ = -1; }
  void set_enabled(bool on) { enabled_ = on; }

  std::map<std::string, Aggregate> Aggregates() const {
    std::map<std::string, Aggregate> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Aggregate& a = out[s.name];
      a.self_ns += (s.end - s.start) - s.child_ns;
      a.spans += 1;
      a.work += s.work;
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "name,start_ns,end_ns,parent,request,work\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s,%lld,%lld,%d,%d,%lld\n", s.name,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent, s.request,
                   static_cast<long long>(s.work));
    }
    std::fclose(f);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  std::int32_t request_ = -1;
  std::int32_t next_request_ = 0;
  SpanStore spans_;
  std::vector<int> stack_;
  std::unordered_set<std::string> names_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t work = 1)
      : tracer_(tracer), id_(tracer.Begin(name, work)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Response rendering, as routes.cc renders (its writers are file-local).

void WriteEstimate(JsonWriter& w,
                   const aqua::QueryResponse<aqua::Estimate>& response) {
  w.BeginObject();
  w.Key("estimate").Double(response.answer.value);
  w.Key("ci_low").Double(response.answer.ci_low);
  w.Key("ci_high").Double(response.answer.ci_high);
  w.Key("confidence").Double(response.answer.confidence);
  w.Key("sample_points").Int(response.answer.sample_points);
  w.Key("method").String(response.method);
  w.Key("response_ns").Int(response.response_ns);
  w.EndObject();
}

void WriteItems(JsonWriter& w, const aqua::HotList& items) {
  w.Key("items").BeginArray();
  for (const aqua::HotListItem& item : items) {
    w.BeginObject();
    w.Key("value").Int(item.value);
    w.Key("estimated_count").Double(item.estimated_count);
    w.Key("synopsis_count").Int(item.synopsis_count);
    w.EndObject();
  }
  w.EndArray();
}

void WriteHotList(JsonWriter& w,
                  const aqua::QueryResponse<aqua::HotList>& response) {
  w.BeginObject();
  WriteItems(w, response.answer);
  w.Key("method").String(response.method);
  w.Key("response_ns").Int(response.response_ns);
  w.EndObject();
}

void WritePlanned(JsonWriter& w, const aqua::ParsedSqlQuery& parsed,
                  const aqua::PlannedResponse& planned) {
  w.BeginObject();
  w.Key("kind").String(aqua::QueryKindName(parsed.query.kind));
  w.Key("target").String(parsed.target);
  if (parsed.query.kind == aqua::QueryKind::kHotList) {
    WriteItems(w, planned.hotlist);
  } else {
    w.Key("estimate").Double(planned.estimate.value);
    w.Key("ci_low").Double(planned.estimate.ci_low);
    w.Key("ci_high").Double(planned.estimate.ci_high);
    w.Key("confidence").Double(planned.estimate.confidence);
    w.Key("sample_points").Int(planned.estimate.sample_points);
  }
  w.Key("method").String(planned.method);
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

const char* AnswerSpan(std::string_view endpoint) {
  if (endpoint == "hotlist") return "registry.answer.hotlist";
  if (endpoint == "frequency") return "registry.answer.frequency";
  if (endpoint == "count_where") return "registry.answer.count_where";
  if (endpoint == "quantile") return "registry.answer.quantile";
  return "registry.answer.distinct";
}

std::string GetWire(std::string_view target) {
  std::string r = "GET ";
  r.append(target);
  r.append(" HTTP/1.1\r\nHost: bench\r\n\r\n");
  return r;
}

std::string PostWire(std::string_view path, const std::vector<Value>& values) {
  std::string body = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body.push_back(',');
    body += std::to_string(values[i]);
  }
  body.push_back(']');
  std::string r = "POST ";
  r.append(path);
  r.append(" HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
           "Content-Length: ");
  r.append(std::to_string(body.size()));
  r.append("\r\n\r\n");
  r.append(body);
  return r;
}

/// Registry settle bookkeeping on the virtual clock.
struct RefreshClock {
  double last_settle_s = -1e9;
  std::int64_t ops_since = 0;
};

constexpr double kStaleIntervalS = 0.100;   // --cache-stale-ms default
constexpr std::int64_t kStaleOps = 8192;     // --cache-stale-ops default
constexpr double kPumpIntervalS = 0.020;     // --refresh-interval-ms default
/// The traced firehose replays its first batches only (about 6M values),
/// which bounds the traced run's time; per-value costs are what it reports.
constexpr std::int64_t kReplayFirehoseBatches = 1500;

aqua::ServingEngineOptions EngineOptions() {
  aqua::ServingEngineOptions options;
  options.external_refresh = true;
  options.cache_max_stale_ops = 1;
  options.cache_max_stale_interval = std::chrono::nanoseconds(1);
  return options;
}

aqua::CatalogOptions CatalogOptionsForReplay() {
  aqua::CatalogOptions options;
  options.external_refresh = true;
  options.cache_max_stale_ops = 1;
  options.cache_max_stale_interval = std::chrono::nanoseconds(1);
  return options;
}

class Replay {
 public:
  explicit Replay(WorkloadPlan plan)
      : plan_(std::move(plan)),
        pump_(plan_.kind == Kind::kFirehose),
        engine_(EngineOptions()),
        decomposed_(EngineOptions()),
        two_producers_(EngineOptions()) {
    if (!plan_.attrs.empty()) {
      catalog_ = std::make_unique<aqua::SynopsisCatalog>(
          16384, CatalogOptionsForReplay());
      for (const std::string& a : plan_.attrs) {
        (void)catalog_->RegisterAttribute(a);
      }
      (void)catalog_->Seal();
    }
    clocks_.resize(plan_.attrs.size() + 1);
    aqua::ConciseSampleOptions concise;
    concise.footprint_bound = 4096;
    concise_ = std::make_unique<aqua::ConciseSample>(concise);
    aqua::CountingSampleOptions counting;
    counting.footprint_bound = 4096;
    counting_ = std::make_unique<aqua::CountingSample>(counting);
    sketch_ = std::make_unique<aqua::FlajoletMartin>(aqua::kDefaultSketchMaps);
    reservoir_ = std::make_unique<aqua::ReservoirSample>(4096, 0x5eed);
  }

  void Run() {
    // Set-up, untraced: the preload reaches every copy of the state.
    for (const auto& batch : plan_.preload) IngestEverywhere(0, batch, -1.0);
    for (std::size_t a = 0; a < plan_.attr_preload.size(); ++a) {
      for (const auto& batch : plan_.attr_preload[a]) {
        IngestEverywhere(static_cast<int>(a + 1), batch, -1.0);
      }
    }
    IngestEverywhere(0, std::vector<Value>(kMarkerCount, kMarkerValue), -1.0);
    for (std::size_t r = 0; r < clocks_.size(); ++r) Settle(static_cast<int>(r), 0.0);

    // Warm-up untraced, then the window traced, merged on virtual time.
    std::vector<Event> events = Events();
    const double window_start = plan_.warmup_s;
    double next_pump = 0.0;
    for (const Event& e : events) {
      tracer_.set_enabled(e.t >= window_start);
      if (pump_) {
        while (next_pump <= e.t) {
          PumpTick(next_pump);
          next_pump += kPumpIntervalS;
        }
      }
      if (e.batch != nullptr) {
        IngestEverywhere(e.target, *e.batch, e.t);
      } else if (e.slot->probe) {
        for (Value p : kProbeValues) {
          Get("/frequency?value=" + std::to_string(p), e.t);
        }
      } else {
        Get(plan_.queries[e.slot->query], e.t);
      }
    }
    tracer_.set_enabled(true);
    TwoProducers();
    if (catalog_ == nullptr) CatalogSidePass();
    tracer_.set_enabled(false);
    overhead_ = TracingOverhead(events);
  }

  void Report(const std::string& spans_path) {
    if (!spans_path.empty()) tracer_.Write(spans_path);
    std::printf("{\"spans\":%zu,\"tracing_overhead\":%.6f,\"aggregates\":{",
                tracer_.size(), overhead_);
    // Two producers time their own calls (the tracer is single-threaded).
    std::printf("\"registry.insert.p2\":{\"self_ns\":%lld,\"spans\":%lld,"
                "\"work\":%lld}",
                static_cast<long long>(p2_ns_), static_cast<long long>(p2_calls_),
                static_cast<long long>(p2_values_));
    for (const auto& [name, a] : tracer_.Aggregates()) {
      std::printf(",\"%s\":{\"self_ns\":%lld,\"spans\":%lld,\"work\":%lld}",
                  name.c_str(), static_cast<long long>(a.self_ns),
                  static_cast<long long>(a.spans),
                  static_cast<long long>(a.work));
    }
    std::printf("}}\n");
  }

 private:
  struct Event {
    double t = 0;
    const Slot* slot = nullptr;
    const std::vector<Value>* batch = nullptr;
    int target = 0;
  };

  std::vector<Event> Events() {
    std::vector<Event> events;
    double end = plan_.warmup_s + plan_.window_s;
    if (plan_.kind == Kind::kFirehose) {
      const std::int64_t n =
          std::min(plan_.firehose_batches, kReplayFirehoseBatches);
      firehose_.reserve(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        firehose_.push_back(FirehoseBatch(plan_, i));
      }
      for (std::int64_t i = 0; i < n; ++i) {
        Event e;
        e.t = plan_.warmup_s +
              static_cast<double>(i) / kFirehoseBatchesPerSecond;
        e.batch = &firehose_[static_cast<std::size_t>(i)];
        events.push_back(e);
      }
      end = plan_.warmup_s + static_cast<double>(n) / kFirehoseBatchesPerSecond;
    }
    for (const IngestBatch& b : plan_.trickle) {
      Event e;
      e.t = b.due_s;
      e.batch = &b.values;
      e.target = b.target;
      events.push_back(e);
    }
    for (const Slot& s : plan_.slots) {
      if (s.due_s >= end) break;
      Event e;
      e.t = s.due_s;
      e.slot = &s;
      events.push_back(e);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.t < b.t; });
    return events;
  }

  const aqua::SynopsisRegistry* RegistryOf(int target) const {
    return target == 0 ? &engine_.registry()
                       : catalog_->registry(plan_.attrs[target - 1]);
  }

  /// One epoch refresh of a registry: each synopsis's settle, with the
  /// view build it timed itself as its child.
  void Settle(int target, double t) {
    const aqua::SynopsisRegistry* registry = RegistryOf(target);
    Scope settle(tracer_, "registry.settle");
    for (std::size_t i = 0; i < registry->size(); ++i) {
      const aqua::SynopsisHandle* handle = registry->handle_at(i);
      if (!handle->CacheIsStale()) continue;
      const std::string name(handle->Name());
      Scope one(tracer_, tracer_.Intern("concurrency.settle." + name));
      handle->SettleCache();
      tracer_.Measured(tracer_.Intern("view.build." + name),
                       handle->ViewBuildNs());
    }
    clocks_[target].last_settle_s = t;
    clocks_[target].ops_since = 0;
  }

  bool SettleDue(int target, double t) const {
    const RefreshClock& c = clocks_[target];
    return c.ops_since >= kStaleOps || t - c.last_settle_s >= kStaleIntervalS;
  }

  void PumpTick(double t) {
    tracer_.NoRequest();
    for (std::size_t r = 0; r < clocks_.size(); ++r) {
      if (SettleDue(static_cast<int>(r), t)) Settle(static_cast<int>(r), t);
    }
  }

  /// The route's scoped epoch: (scope, epoch) or nullopt.  Inline refresh
  /// settles a due registry here, on the request, as the server does.
  std::optional<std::pair<std::string_view, std::uint64_t>> ScopedEpoch(
      const HttpRequest& request, double t) {
    std::string_view scope;
    int target = -1;
    if (request.path == "/query") {
      const auto q = request.QueryParam("q");
      if (!q.has_value()) return std::nullopt;
      aqua::ParsedSqlQuery parsed;
      {
        Scope parse(tracer_, "plan.sql_parse");
        if (!aqua::ParseSqlQuery(*q, &parsed).ok()) return std::nullopt;
      }
      scope = parsed.target;
      target = TargetOf(parsed.target);
    } else if (request.path.starts_with("/attr/")) {
      std::string_view rest = request.path.substr(6);
      scope = rest.substr(0, rest.find('/'));
      target = TargetOf(scope);
    } else {
      scope = "stream";
      target = 0;
    }
    if (target < 0) return std::nullopt;
    if (!pump_ && SettleDue(target, t)) Settle(target, t);
    return std::make_pair(scope, RegistryOf(target)->ServingEpoch());
  }

  int TargetOf(std::string_view name) const {
    if (name == "stream") return 0;
    for (std::size_t a = 0; a < plan_.attrs.size(); ++a) {
      if (plan_.attrs[a] == name) return static_cast<int>(a + 1);
    }
    return -1;
  }

  void Get(const std::string& target, double t) {
    wire_ = GetWire(target);
    tracer_.NewRequest();
    Scope request_span(tracer_, "server.request");
    HttpRequest request;
    {
      Scope parse(tracer_, "server.http_parse");
      parser_.Feed(wire_);
      request = parser_.TakeRequest();
    }
    std::optional<std::pair<std::string_view, std::uint64_t>> before;
    {
      Scope epoch(tracer_, "server.scoped_epoch");
      before = ScopedEpoch(request, t);
    }
    std::string_view key;
    bool cacheable = before.has_value();
    if (cacheable) {
      Scope build(tracer_, "server.cache_key");
      if (request.path == "/query") {
        cacheable = cache_.BuildKeyWith(
            request,
            [this](const HttpRequest& r, std::string* out) {
              const auto q = r.QueryParam("q");
              if (!q.has_value()) return false;
              aqua::ParsedSqlQuery parsed;
              {
                Scope parse(tracer_, "plan.sql_parse");
                if (!aqua::ParseSqlQuery(*q, &parsed).ok()) return false;
              }
              Scope canonical(tracer_, "plan.canonical_key");
              aqua::AppendCanonicalSqlKey(parsed, out);
              return true;
            },
            &key);
      } else {
        key = cache_.BuildKey(request);
      }
    }
    if (cacheable) {
      Scope lookup(tracer_, "server.cache_lookup");
      if (cache_.LookupPinned(before->first, before->second, key) != nullptr) {
        ++hits_;
        return;
      }
    }
    ++misses_;
    response_.Reset();
    {
      Scope handler(tracer_, "server.handler");
      Handle(request);
    }
    {
      Scope serialize(tracer_, "server.serialize");
      head_.clear();
      response_.SerializeHeadInto(&head_);
    }
    if (cacheable && response_.status_code == 200) {
      std::optional<std::pair<std::string_view, std::uint64_t>> after;
      {
        Scope epoch(tracer_, "server.scoped_epoch");
        after = ScopedEpoch(request, t);
      }
      if (after.has_value() && after->second == before->second) {
        Scope store(tracer_, "server.cache_store");
        std::string wire;
        wire.reserve(head_.size() + response_.body.size());
        wire.append(head_);
        wire.append(response_.body);
        cache_.Store(before->first, before->second, key, std::move(wire));
      }
    }
  }

  void Handle(const HttpRequest& request) {
    JsonWriter w(&response_.body);
    const std::string_view path = request.path;
    if (path == "/query") {
      const std::string_view text = *request.QueryParam("q");
      aqua::ParsedSqlQuery parsed;
      {
        Scope parse(tracer_, "plan.sql_parse");
        if (!aqua::ParseSqlQuery(text, &parsed).ok()) {
          response_.status_code = 400;
          return;
        }
      }
      const int target = TargetOf(parsed.target);
      if (target < 0) {
        response_.status_code = 404;
        return;
      }
      const aqua::SynopsisRegistry& registry = *RegistryOf(target);
      {
        // PlanQuery alone: RunPlannedQueryInto plans again inside, so this
        // extra call is the only way to time planning by itself.  As a
        // child span it leaves every other span's self time unchanged.
        Scope plan(tracer_, "plan.plan");
        (void)aqua::PlanQuery(registry, parsed.query.kind, parsed.query.bound,
                              aqua::QueryContext{registry.observed_inserts()});
      }
      {
        Scope run(tracer_, "plan.run");
        aqua::RunPlannedQueryInto(registry, parsed.query, &planned_);
      }
      WritePlanned(w, parsed, planned_);
      return;
    }
    std::string_view endpoint = path.substr(1);
    std::string_view attribute;
    if (path.starts_with("/attr/")) {
      const std::string_view rest = path.substr(6);
      attribute = rest.substr(0, rest.find('/'));
      endpoint = rest.substr(rest.find('/') + 1);
    }
    const bool catalog = !attribute.empty();
    const char* span_name = catalog ? "warehouse.answer" : AnswerSpan(endpoint);
    if (endpoint == "hotlist") {
      aqua::HotListQuery query;
      query.k = request.QueryInt("k", 10).value_or(10);
      query.beta = request.QueryDouble("beta", 3.0).value_or(3.0);
      {
        Scope answer(tracer_, span_name);
        if (catalog) {
          (void)catalog_->HotListForInto(attribute, query, &hotlist_);
        } else {
          engine_.HotListAnswerInto(query, &hotlist_);
        }
      }
      WriteHotList(w, hotlist_);
      return;
    }
    aqua::QueryResponse<aqua::Estimate> estimate;
    const double confidence =
        request.QueryDouble("confidence", 0.95).value_or(0.95);
    if (endpoint == "frequency") {
      const Value value = request.QueryInt("value", 0).value_or(0);
      Scope answer(tracer_, span_name);
      estimate = catalog ? catalog_->FrequencyFor(attribute, value).ValueOrDie()
                         : engine_.FrequencyAnswer(value);
    } else if (endpoint == "count_where") {
      aqua::ValueRange range;
      range.low = request.QueryInt("low", range.low).value_or(range.low);
      range.high = request.QueryInt("high", range.high).value_or(range.high);
      Scope answer(tracer_, span_name);
      estimate = catalog
                     ? catalog_->CountWhereFor(attribute, range, confidence)
                           .ValueOrDie()
                     : engine_.CountWhereAnswer(range, confidence);
    } else if (endpoint == "quantile") {
      const double q = request.QueryDouble("q", 0.5).value_or(0.5);
      Scope answer(tracer_, span_name);
      estimate = catalog
                     ? catalog_->QuantileFor(attribute, q, confidence).ValueOrDie()
                     : engine_.QuantileAnswer(q, confidence);
    } else if (endpoint == "distinct") {
      Scope answer(tracer_, span_name);
      estimate = catalog ? catalog_->DistinctFor(attribute).ValueOrDie()
                         : engine_.DistinctValuesAnswer();
    } else {
      response_.status_code = 404;
      return;
    }
    WriteEstimate(w, estimate);
  }

  /// One ingest POST through the server path, then the same values through
  /// the decomposed copies: per handle, per kernel.  `t` < 0 is set-up.
  void IngestEverywhere(int target, const std::vector<Value>& values,
                        double t) {
    const auto n = static_cast<std::int64_t>(values.size());
    const std::string path =
        target == 0 ? "/ingest" : "/attr/" + plan_.attrs[target - 1] + "/ingest";
    wire_ = PostWire(path, values);
    {
      tracer_.NewRequest();
      Scope request_span(tracer_, "server.request");
      HttpRequest request;
      {
        Scope parse(tracer_, "server.http_parse");
        parser_.Feed(wire_);
        request = parser_.TakeRequest();
      }
      std::vector<Value> v;
      {
        Scope json(tracer_, "server.json", n);
        v = aqua::ParseValueArray(request.body).ValueOrDie();
      }
      if (target == 0) {
        Scope insert(tracer_, "registry.insert", n);
        engine_.InsertBatch(v);
      } else {
        Scope insert(tracer_, "warehouse.insert", n);
        (void)catalog_->InsertBatch(plan_.attrs[target - 1], v);
      }
    }
    tracer_.NoRequest();
    clocks_[target].ops_since += n;
    if (target != 0) return;
    // Handle by handle: partition, locks and kernel of each synopsis.
    aqua::SynopsisRegistry* registry = decomposed_.mutable_registry();
    for (std::size_t i = 0; i < registry->size(); ++i) {
      aqua::SynopsisHandle* handle = registry->handle_at(i);
      {
        Scope insert(
            tracer_,
            tracer_.Intern("concurrency.insert." + std::string(handle->Name())),
            n);
        handle->InsertBatch(values);
      }
      handle->OnIngest(n);
    }
    // Each synopsis's own batch insert, alone and unlocked.
    {
      Scope insert(tracer_, "core.insert.concise-sample", n);
      concise_->InsertBatch(values);
    }
    {
      Scope insert(tracer_, "core.insert.counting-sample", n);
      counting_->InsertBatch(values);
    }
    {
      Scope insert(tracer_, "sketch.insert.fm-sketch", n);
      for (Value v : values) sketch_->Insert(v);
    }
    {
      Scope insert(tracer_, "sample.insert.traditional-sample", n);
      reservoir_->InsertBatch(values);
    }
    if (t >= plan_.warmup_s) window_batches_.push_back(&values);
    if (t < 0) two_producers_.InsertBatch(values);
  }

  /// The window's stream batches again, into a registry fed by two
  /// producer threads at once (firehose ingests over two connections).
  void TwoProducers() {
    std::int64_t ns[2] = {0, 0}, values[2] = {0, 0};
    auto produce = [&](int who) {
      for (std::size_t i = static_cast<std::size_t>(who);
           i < window_batches_.size(); i += 2) {
        const std::vector<Value>& batch = *window_batches_[i];
        const std::int64_t start = NowNs();
        two_producers_.InsertBatch(batch);
        ns[who] += NowNs() - start;
        values[who] += static_cast<std::int64_t>(batch.size());
      }
    };
    std::thread other(produce, 1);
    produce(0);
    other.join();
    p2_ns_ = ns[0] + ns[1];
    p2_values_ = values[0] + values[1];
    p2_calls_ = static_cast<std::int64_t>(window_batches_.size());
  }

  /// Workloads whose server runs without a catalog still report the
  /// warehouse layer: the window's stream batches and dedicated-route
  /// queries go through a one-attribute catalog.  The end-to-end metrics of
  /// these workloads do not depend on it.
  void CatalogSidePass() {
    // Answers come from the epoch published after the preload: the side
    // pass times the catalog's own routing and answers, not refresh.
    aqua::SynopsisCatalog side(16384, CatalogOptionsForReplay());
    (void)side.RegisterAttribute("side");
    (void)side.Seal();
    tracer_.set_enabled(false);
    for (const auto& batch : plan_.preload) (void)side.InsertBatch("side", batch);
    side.SettleCaches();
    tracer_.set_enabled(true);
    std::size_t next_batch = 0;
    for (const Slot& slot : plan_.slots) {
      if (slot.due_s < plan_.warmup_s || slot.probe) continue;
      if (next_batch < window_batches_.size()) {
        const std::vector<Value>& batch = *window_batches_[next_batch++];
        Scope insert(tracer_, "warehouse.insert",
                     static_cast<std::int64_t>(batch.size()));
        (void)side.InsertBatch("side", batch);
      }
      const std::string& target = plan_.queries[slot.query];
      if (target.starts_with("/query")) continue;
      wire_ = GetWire(target);
      parser_.Feed(wire_);
      const HttpRequest request = parser_.TakeRequest();
      const std::string_view endpoint = request.path.substr(1);
      Scope answer(tracer_, "warehouse.answer");
      if (endpoint == "hotlist") {
        aqua::HotListQuery query;
        query.k = request.QueryInt("k", 10).value_or(10);
        query.beta = request.QueryDouble("beta", 3.0).value_or(3.0);
        (void)side.HotListForInto("side", query, &hotlist_);
      } else if (endpoint == "frequency") {
        (void)side.FrequencyFor("side", request.QueryInt("value", 0).value_or(0));
      } else if (endpoint == "count_where") {
        aqua::ValueRange range;
        range.low = request.QueryInt("low", 0).value_or(0);
        range.high = request.QueryInt("high", 0).value_or(0);
        (void)side.CountWhereFor("side", range);
      } else if (endpoint == "quantile") {
        (void)side.QuantileFor("side", request.QueryDouble("q", 0.5).value_or(0.5));
      } else {
        (void)side.DistinctFor("side");
      }
    }
  }

  /// Replays the window's queries with spans off and on, alternating, on
  /// the final state: (on - off) / off of the faster of three tries each.
  double TracingOverhead(const std::vector<Event>& events) {
    Tracer saved = std::move(tracer_);
    std::int64_t best[2] = {INT64_MAX, INT64_MAX};
    for (int round = 0; round < 3; ++round) {
      for (int on = 0; on < 2; ++on) {
        tracer_ = Tracer();
        tracer_.set_enabled(on == 1);
        const std::int64_t start = NowNs();
        for (const Event& e : events) {
          if (e.slot == nullptr || e.t < plan_.warmup_s || e.slot->probe) continue;
          Get(plan_.queries[e.slot->query], 1e9);
        }
        best[on] = std::min(best[on], NowNs() - start);
      }
    }
    tracer_ = std::move(saved);
    return static_cast<double>(best[1] - best[0]) / static_cast<double>(best[0]);
  }

 public:
  std::int64_t p2_ns_ = 0, p2_values_ = 0, p2_calls_ = 0;
  std::int64_t hits_ = 0, misses_ = 0;

 private:
  WorkloadPlan plan_;
  bool pump_;
  aqua::ServingEngine engine_;
  aqua::ServingEngine decomposed_;
  aqua::ServingEngine two_producers_;
  std::unique_ptr<aqua::SynopsisCatalog> catalog_;
  std::unique_ptr<aqua::ConciseSample> concise_;
  std::unique_ptr<aqua::CountingSample> counting_;
  std::unique_ptr<aqua::FlajoletMartin> sketch_;
  std::unique_ptr<aqua::ReservoirSample> reservoir_;
  std::vector<RefreshClock> clocks_;
  std::vector<std::vector<Value>> firehose_;
  std::vector<const std::vector<Value>*> window_batches_;
  Tracer tracer_;
  aqua::HttpRequestParser parser_;
  aqua::ResponseCache cache_;
  HttpResponse response_;
  std::string head_;
  std::string wire_;
  aqua::QueryResponse<aqua::HotList> hotlist_;
  aqua::PlannedResponse planned_;
  double overhead_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(argv[i + 1]);
    else if (flag == "--spans") spans = argv[i + 1];
  }
  Kind kind;
  if (!ParseKind(workload, &kind)) {
    std::fprintf(stderr, "perfbench_replay: unknown --workload\n");
    return 2;
  }
  Replay replay(MakePlan(kind, seed, seconds));
  replay.Run();
  replay.Report(spans);
  std::fprintf(stderr, "replay: %lld cache hits, %lld misses, p2 %lld ns over %lld values\n",
               static_cast<long long>(replay.hits_),
               static_cast<long long>(replay.misses_),
               static_cast<long long>(replay.p2_ns_),
               static_cast<long long>(replay.p2_values_));
  return 0;
}
