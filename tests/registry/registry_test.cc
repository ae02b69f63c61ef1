// Tests of the type-erased synopsis registry: one descriptor registered
// once must be served by BOTH engines through the same accuracy-ordered
// planner (the acceptance criterion for collapsing the per-engine method
// selection), capabilities must gate the concurrent machinery
// (mergeable synopses shard, unmergeable ones stay single-instance), and
// descriptor validation must reject incoherent cost/error models.

#include "registry/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "plan/planner.h"
#include "registry/builtin.h"
#include "server/serving_engine.h"
#include "warehouse/engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

/// A custom synopsis private to this test: exact distinct count via a set.
/// Deliberately minimal — no MergeFrom/Drain/InsertBatch/Delete — so the
/// registry must fall back to per-element inserts and single-instance
/// (SharedSynopsis) execution.
struct ExactDistinct {
  std::set<Value> values;
  void Insert(Value v) { values.insert(v); }
  Words Footprint() const { return static_cast<Words>(values.size()); }
};

SynopsisDescriptor<ExactDistinct> ExactDistinctDescriptor(
    std::string name = "exact-distinct",
    DeleteBehavior on_delete = DeleteBehavior::kIgnores,
    int accuracy = kAccuracyExact) {
  SynopsisDescriptor<ExactDistinct> d;
  d.name = std::move(name);
  d.on_delete = on_delete;
  d.Declare(QueryKind::kDistinct, accuracy,
            [](const ExactDistinct&, const QueryContext&, double) {
              return 0.0;
            });
  d.factory = [](std::uint64_t) { return ExactDistinct{}; };
  d.answers.distinct = [](const ExactDistinct& s, const QueryContext&) {
    Estimate e;
    e.value = static_cast<double>(s.values.size());
    e.ci_low = e.value;
    e.ci_high = e.value;
    e.confidence = 1.0;
    e.sample_points = static_cast<std::int64_t>(s.values.size());
    return e;
  };
  return d;
}

/// A custom synopsis that applies deletes exactly: per-value counts.  It is
/// mergeable and drainable like the built-in samples, yet a drained shard
/// could not take a delete for a value the epoch already absorbed, so the
/// registry must keep it single-instance.
struct ExactCounts {
  std::map<Value, Count> counts;
  std::int64_t observed = 0;
  void Insert(Value v) {
    ++counts[v];
    ++observed;
  }
  Status Delete(Value v) {
    const auto it = counts.find(v);
    if (it == counts.end()) return Status::NotFound("absent value");
    if (--it->second == 0) counts.erase(it);
    return Status::OK();
  }
  Status MergeFrom(const ExactCounts& other) {
    for (const auto& [v, c] : other.counts) counts[v] += c;
    observed += other.observed;
    return Status::OK();
  }
  ExactCounts Drain() { return std::exchange(*this, ExactCounts{}); }
  std::int64_t ObservedInserts() const { return observed; }
  Words Footprint() const { return 2 * static_cast<Words>(counts.size()); }
};

SynopsisDescriptor<ExactCounts> ExactCountsDescriptor() {
  SynopsisDescriptor<ExactCounts> d;
  d.name = "exact-counts";
  d.on_delete = DeleteBehavior::kApplies;
  d.Declare(QueryKind::kFrequency, kAccuracyExact,
            [](const ExactCounts&, const QueryContext&, double) {
              return 0.0;
            });
  d.factory = [](std::uint64_t) { return ExactCounts{}; };
  d.answers.frequency = [](const ExactCounts& s, Value v,
                           const QueryContext&) {
    const auto it = s.counts.find(v);
    Estimate e;
    e.value = it == s.counts.end() ? 0.0 : static_cast<double>(it->second);
    e.ci_low = e.value;
    e.ci_high = e.value;
    e.confidence = 1.0;
    return e;
  };
  return d;
}

std::int64_t TrueDistinct(const std::vector<Value>& values) {
  return static_cast<std::int64_t>(
      std::set<Value>(values.begin(), values.end()).size());
}

/// One unbounded plan on `registry`.
PlannedResponse Ask(const SynopsisRegistry& registry,
                    const PlannedQuery& query) {
  PlannedResponse response;
  RunPlannedQueryInto(registry, query, &response);
  return response;
}

const PlannedQuery kDistinct = {.kind = QueryKind::kDistinct};

// The tentpole's acceptance test: ONE descriptor, registered once per
// driver, served by both the one-shard warehouse engine and the sharded
// serving engine — same method tag, same exact answer, and it outranks the
// built-in FM sketch in both without any per-engine selection code.
TEST(SynopsisRegistryTest, CustomSynopsisServedByBothEngines) {
  const std::vector<Value> stream = UniformValues(20000, 700, 99);
  const auto truth = static_cast<double>(TrueDistinct(stream));

  ApproximateAnswerEngine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterSynopsis(ExactDistinctDescriptor()).ok());
  for (Value v : stream) ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  const auto warehouse_answer = Ask(engine.registry(), kDistinct);
  EXPECT_EQ(warehouse_answer.method, "exact-distinct");
  EXPECT_DOUBLE_EQ(warehouse_answer.estimate.value, truth);

  ServingEngineOptions serving_options;
  serving_options.shards = 4;
  ServingEngine serving(serving_options);
  ASSERT_TRUE(serving.RegisterSynopsis(ExactDistinctDescriptor()).ok());
  serving.InsertBatch(stream);
  const auto serving_answer = Ask(serving.registry(), kDistinct);
  EXPECT_EQ(serving_answer.method, "exact-distinct");
  EXPECT_DOUBLE_EQ(serving_answer.estimate.value, truth);
}

TEST(SynopsisRegistryTest, CapabilitiesGateShardingAndCaching) {
  ServingEngineOptions options;
  options.shards = 4;
  options.cache_max_stale_ops = 1;  // every ingest op makes the epoch stale
  ServingEngine serving(options);
  ASSERT_TRUE(serving.RegisterSynopsis(ExactDistinctDescriptor()).ok());
  ASSERT_TRUE(serving.RegisterSynopsis(ExactCountsDescriptor()).ok());
  serving.InsertBatch(UniformValues(1000, 100, 7));
  serving.InsertBatch(std::vector<Value>(5, 4242));

  const RegistryStats stats = serving.registry().GetStats();
  bool checked_sharded = false;
  bool checked_single = false;
  for (const SynopsisHandleStats& s : stats.synopses) {
    if (s.name == kConciseSynopsisName ||
        s.name == kTraditionalSynopsisName) {
      EXPECT_TRUE(s.sharded) << s.name;  // mergeable, drainable, insert-only
      checked_sharded = true;
    }
    if (s.name == kCountingSynopsisName || s.name == kDistinctSketchName ||
        s.name == "exact-distinct" || s.name == "exact-counts") {
      // Unmergeable, or (exact-counts) mergeable but applying deletes.
      EXPECT_FALSE(s.sharded) << s.name;
      checked_single = true;
    }
  }
  EXPECT_TRUE(checked_sharded);
  EXPECT_TRUE(checked_single);

  // The single-instance delete-applying synopsis answers exactly, and a
  // delete that arrives after an epoch was published shows in the next.
  const PlannedQuery frequency = {.kind = QueryKind::kFrequency,
                                  .value = 4242};
  const PlannedResponse before = Ask(serving.registry(), frequency);
  EXPECT_EQ(before.method, "exact-counts");
  EXPECT_DOUBLE_EQ(before.estimate.value, 5.0);
  ASSERT_TRUE(serving.Delete(4242).ok());
  const PlannedResponse after = Ask(serving.registry(), frequency);
  EXPECT_EQ(after.method, "exact-counts");
  EXPECT_DOUBLE_EQ(after.estimate.value, 4.0);

  // Both answers came from published epochs: the delete was published as
  // the second.
  EXPECT_EQ(serving.registry().handle("exact-counts")->CacheEpoch(), 2u);

  // The engine's one-shard registry takes the same capability gate.
  ApproximateAnswerEngine engine(EngineOptions{});
  for (const SynopsisHandleStats& s : engine.registry().GetStats().synopses) {
    EXPECT_EQ(s.sharded, s.name == kConciseSynopsisName ||
                             s.name == kTraditionalSynopsisName)
        << s.name;
  }
}

TEST(SynopsisRegistryTest, RegisterValidatesDescriptors) {
  SynopsisRegistry registry(SynopsisRegistry::Options{});

  // Coherent descriptor registers once, duplicates are rejected.
  ASSERT_TRUE(registry.Register(ExactDistinctDescriptor()).ok());
  EXPECT_EQ(registry.Register(ExactDistinctDescriptor()).code(),
            StatusCode::kAlreadyExists);

  auto unnamed = ExactDistinctDescriptor("");
  EXPECT_TRUE(registry.Register(std::move(unnamed)).IsInvalidArgument());

  auto no_factory = ExactDistinctDescriptor("no-factory");
  no_factory.factory = nullptr;
  EXPECT_TRUE(registry.Register(std::move(no_factory)).IsInvalidArgument());

  // kApplies without a Delete(Value) member cannot be honored.
  auto applies = ExactDistinctDescriptor("applies", DeleteBehavior::kApplies);
  EXPECT_TRUE(registry.Register(std::move(applies)).IsInvalidArgument());

  // A model entry without an answer function (and vice versa) is
  // incoherent, as is a declared kind with no error estimator — the
  // planner cannot score what it cannot predict.
  auto model_only = ExactDistinctDescriptor("model-only");
  model_only.Declare(QueryKind::kHotList, 1,
                     [](const ExactDistinct&, const QueryContext&, double) {
                       return 0.0;
                     });
  EXPECT_TRUE(registry.Register(std::move(model_only)).IsInvalidArgument());

  auto answer_only = ExactDistinctDescriptor("answer-only");
  answer_only.model[static_cast<int>(QueryKind::kDistinct)] = {};
  EXPECT_TRUE(registry.Register(std::move(answer_only)).IsInvalidArgument());

  auto no_estimator = ExactDistinctDescriptor("no-estimator");
  no_estimator.model[static_cast<int>(QueryKind::kDistinct)].error = nullptr;
  EXPECT_TRUE(registry.Register(std::move(no_estimator)).IsInvalidArgument());
}

TEST(SynopsisRegistryTest, CostErrorModelIsLiveAndMeasured) {
  // The model's static half (accuracy classes) is published through
  // Capabilities(); the live half (error estimators over current state,
  // measured latency EWMAs) through the handle.
  ApproximateAnswerEngine engine(EngineOptions{});
  const SynopsisHandle* concise =
      engine.registry().handle(kConciseSynopsisName);
  ASSERT_NE(concise, nullptr);
  EXPECT_EQ(concise->Capabilities().AccuracyClass(QueryKind::kCountWhere),
            kAccuracyConcise);
  EXPECT_TRUE(concise->Capabilities().Answers(QueryKind::kCountWhere));
  EXPECT_FALSE(concise->Capabilities().Answers(QueryKind::kDistinct));

  // An empty sample predicts nothing, even once its empty epoch is
  // published (StateCopy publishes one); an undeclared kind never predicts.
  QueryContext ctx{engine.registry().observed_inserts()};
  ASSERT_TRUE(
      engine.registry().StateCopy<ConciseSample>(kConciseSynopsisName).ok());
  ASSERT_EQ(concise->CacheEpoch(), 1u);
  EXPECT_TRUE(std::isinf(
      concise->PredictedError(QueryKind::kCountWhere, ctx, 0.95)));
  for (Value v : UniformValues(5000, 200, 11)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  // Predictions read the published epoch: settle it first.
  engine.registry().SettleCaches();
  ctx.observed_inserts = engine.registry().observed_inserts();
  const double err95 =
      concise->PredictedError(QueryKind::kCountWhere, ctx, 0.95);
  const double err99 =
      concise->PredictedError(QueryKind::kCountWhere, ctx, 0.99);
  EXPECT_GT(err95, 0.0);
  EXPECT_LT(err95, 1.0);
  EXPECT_GT(err99, err95);  // tighter confidence, wider predicted error
  EXPECT_TRUE(
      std::isinf(concise->PredictedError(QueryKind::kDistinct, ctx, 0.95)));

  // Answering feeds the measured latency profile on the path taken: the
  // published epoch's frozen view serves count_where.
  EXPECT_TRUE(concise->ViewAnswers(QueryKind::kCountWhere));
  EXPECT_EQ(concise->LatencyFor(QueryKind::kCountWhere).view_observations,
            0);
  const auto response = Ask(
      engine.registry(), {.kind = QueryKind::kCountWhere, .range = {1, 100}});
  EXPECT_EQ(response.method, kConciseSynopsisName);
  EXPECT_TRUE(response.used_view);
  const LatencyProfile profile = concise->LatencyFor(QueryKind::kCountWhere);
  EXPECT_GE(profile.view_observations, 1);
  EXPECT_GT(profile.view_ns, 0.0);
  EXPECT_EQ(profile.direct_observations, 0);
}

TEST(SynopsisRegistryTest, AccuracyOrderSelectsBestThenFallsBack) {
  // Two synopses answer the same kind; the better accuracy class must
  // serve until a delete invalidates it, then the worse one takes over —
  // the planner's unbounded choice, which both engines share.
  SynopsisRegistry registry(SynopsisRegistry::Options{});
  ASSERT_TRUE(registry
                  .Register(ExactDistinctDescriptor(
                      "fragile-distinct", DeleteBehavior::kInvalidates,
                      kAccuracyExact))
                  .ok());
  ASSERT_TRUE(registry
                  .Register(ExactDistinctDescriptor(
                      "sturdy-distinct", DeleteBehavior::kIgnores,
                      kAccuracyConcise))
                  .ok());

  for (Value v : UniformValues(500, 50, 3)) {
    ASSERT_TRUE(registry.Observe(StreamOp::Insert(v)).ok());
  }
  EXPECT_EQ(Ask(registry, kDistinct).method, "fragile-distinct");

  ASSERT_TRUE(registry.Delete(1).ok());
  EXPECT_FALSE(registry.handle("fragile-distinct")->valid());
  EXPECT_EQ(Ask(registry, kDistinct).method, "sturdy-distinct");

  // Invalidated handles stop counting toward the footprint.
  for (const SynopsisHandleStats& s : registry.GetStats().synopses) {
    if (s.name == "fragile-distinct") {
      EXPECT_EQ(s.footprint, 0);
    }
  }
}

TEST(SynopsisRegistryTest, PersistRoundTripsThroughHandles) {
  // The persist capability travels with the descriptor: encode a concise
  // sample out of one engine, restore it into a fresh one, and the restored
  // sample must be byte-identical in its observable state.
  ApproximateAnswerEngine source(EngineOptions{});
  for (Value v : ZipfValues(30000, 400, 1.1, 17)) {
    ASSERT_TRUE(source.Observe(StreamOp::Insert(v)).ok());
  }
  const SynopsisHandle* handle =
      source.registry().handle(kConciseSynopsisName);
  ASSERT_NE(handle, nullptr);
  EXPECT_TRUE(handle->Capabilities().persistable);
  const auto bytes = handle->EncodeState();
  ASSERT_TRUE(bytes.ok());

  ApproximateAnswerEngine restored(EngineOptions{});
  SynopsisHandle* target =
      restored.registry().mutable_handle(kConciseSynopsisName);
  ASSERT_NE(target, nullptr);
  ASSERT_TRUE(target->RestoreState(bytes.ValueOrDie()).ok());
  const ConciseSample original =
      source.registry()
          .StateCopy<ConciseSample>(kConciseSynopsisName)
          .ValueOrDie();
  const ConciseSample copy =
      restored.registry()
          .StateCopy<ConciseSample>(kConciseSynopsisName)
          .ValueOrDie();
  EXPECT_EQ(copy.SampleSize(), original.SampleSize());
  EXPECT_EQ(copy.Threshold(), original.Threshold());
  EXPECT_EQ(copy.ObservedInserts(), 30000);
  // Re-encoding the restored epoch gives back the same bytes.
  EXPECT_EQ(target->EncodeState().ValueOrDie(), bytes.ValueOrDie());

  // The sketch has no codec; the capability and the error say so.
  const SynopsisHandle* sketch =
      source.registry().handle(kDistinctSketchName);
  ASSERT_NE(sketch, nullptr);
  EXPECT_FALSE(sketch->Capabilities().persistable);
  EXPECT_EQ(sketch->EncodeState().status().code(),
            StatusCode::kUnimplemented);
}

/// Every field of an answer, at full precision: equal strings mean the
/// answers would render to the same bytes.
std::string AnswerBytes(const PlannedResponse& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.method << ' ' << r.estimate.value << ' ' << r.estimate.ci_low
      << ' ' << r.estimate.ci_high << ' ' << r.estimate.confidence << ' '
      << r.estimate.sample_points;
  for (const HotListItem& item : r.hotlist) {
    out << " | " << item.value << ' ' << item.estimated_count << ' '
        << item.synopsis_count;
  }
  return out.str();
}

TEST(SynopsisRegistryTest, EncodedShardedStateRestoresTheServedEpoch) {
  // A sharded concurrent registry in the exact regime (τ = 1: few distinct
  // values under the bound).  Part of the stream sits in the shards, not
  // yet in any epoch, when the state is encoded: the encode must refresh
  // first, so the bytes are exactly the epoch queries read.
  ServingEngineOptions options;
  options.shards = 4;
  options.seed = 21;
  ServingEngine source(options);
  const std::vector<Value> stream = ZipfValues(6000, 300, 1.1, 22);
  const std::span<const Value> all(stream);
  source.InsertBatch(all.first(3000));
  const PlannedQuery hot = {.kind = QueryKind::kHotList, .k = 20};
  (void)Ask(source.registry(), hot);  // publishes an epoch
  source.InsertBatch(all.subspan(3000));

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> blobs;
  const SynopsisRegistry& registry = source.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const SynopsisHandle* handle = registry.handle_at(i);
    if (!handle->Capabilities().persistable) continue;
    const auto first = handle->EncodeState();
    const auto second = handle->EncodeState();
    ASSERT_TRUE(first.ok() && second.ok()) << handle->Name();
    EXPECT_EQ(first.ValueOrDie(), second.ValueOrDie()) << handle->Name();
    blobs.emplace_back(std::string(handle->Name()), first.ValueOrDie());
  }
  const ConciseSample concise =
      registry.StateCopy<ConciseSample>(kConciseSynopsisName).ValueOrDie();
  ASSERT_DOUBLE_EQ(concise.Threshold(), 1.0);
  EXPECT_EQ(concise.ObservedInserts(), 6000);

  ServingEngine restored(options);
  for (const auto& [name, bytes] : blobs) {
    SynopsisHandle* handle = restored.mutable_registry()->mutable_handle(name);
    ASSERT_NE(handle, nullptr) << name;
    ASSERT_TRUE(handle->RestoreState(bytes).ok()) << name;
  }
  restored.mutable_registry()->NoteExternalInserts(
      source.registry().observed_inserts());

  EXPECT_EQ(AnswerBytes(Ask(restored.registry(), hot)),
            AnswerBytes(Ask(source.registry(), hot)));
  for (Value v : {1, 2, 3, 17, 150, 299, 100000}) {
    const PlannedQuery frequency = {.kind = QueryKind::kFrequency,
                                    .value = v};
    EXPECT_EQ(AnswerBytes(Ask(restored.registry(), frequency)),
              AnswerBytes(Ask(source.registry(), frequency)))
        << "value " << v;
  }
}

TEST(SynopsisRegistryTest, DeleteBehaviorsRouteIndependently) {
  // One registry, three delete behaviors: kIgnores keeps serving,
  // kInvalidates stops, kApplies adjusts counts — all from one Delete call.
  ApproximateAnswerEngine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterSynopsis(ExactDistinctDescriptor()).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(i % 10)).ok());
  }
  ASSERT_TRUE(engine.Observe(StreamOp::Delete(3)).ok());

  const SynopsisRegistry& registry = engine.registry();
  EXPECT_EQ(  // kInvalidates
      registry.StateCopy<ConciseSample>(kConciseSynopsisName).status().code(),
      StatusCode::kFailedPrecondition);
  const Result<CountingSample> counting =  // kApplies
      registry.StateCopy<CountingSample>(kCountingSynopsisName);
  ASSERT_TRUE(counting.ok());
  EXPECT_EQ(counting.ValueOrDie().CountOf(3), 49);
  const auto distinct = Ask(engine.registry(), kDistinct);  // kIgnores
  EXPECT_EQ(distinct.method, "exact-distinct");
  EXPECT_DOUBLE_EQ(distinct.estimate.value, 10.0);
}

}  // namespace
}  // namespace aqua
