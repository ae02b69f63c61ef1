// End-to-end cluster test: one aggregator + two ingest aqua_serve
// processes, a zipf stream round-robined across the ingest nodes, deltas
// shipped over real HTTP, and the aggregator's answers cross-checked
// against a single-process oracle fed the concatenated stream.
//
// Two legs:
//  - exact regime (footprint >> stream length): the merged answers must be
//    byte-identical to the oracle's — same JSON, modulo response_ns;
//  - sampled regime: the merged answers are statistical, checked under the
//    seed-swept tolerance policy of tests/property/seed_sweep.h (the
//    chi-square-grade rigor lives in wire_merge_property_test.cc; here the
//    bands pin that nothing is grossly off over real HTTP).
//
// The binary path is injected by CMake as AQUA_SERVE_BINARY; every ctest
// entry carries a TIMEOUT so a hung process fails rather than wedging CI.

#include <cmath>
#include <memory>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_util.h"
#include "plan/planner.h"
#include "property/seed_sweep.h"
#include "server/cluster.h"
#include "server/e2e_util.h"
#include "server/json.h"
#include "server/serving_engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

using namespace e2e;  // NOLINT(build/namespaces): test-local helpers
using cluster_test::FreshDataDir;
using cluster_test::JsonInt;

std::vector<std::string> AggregatorArgs(Words footprint) {
  return {"--role",   "aggregator",
          "--shards", "1",
          "--footprint", std::to_string(footprint)};
}

std::vector<std::string> IngestArgs(const std::string& node_id,
                                    const std::string& data_dir,
                                    std::uint16_t aggregator_port,
                                    Words footprint) {
  return {"--role",
          "ingest",
          "--node-id",
          node_id,
          "--data-dir",
          data_dir,
          "--push-to",
          "127.0.0.1:" + std::to_string(aggregator_port),
          "--shards",
          "1",
          "--footprint",
          std::to_string(footprint),
          // Pushes are driven manually via /cluster/push_now so the test
          // controls exactly when deltas ship.
          "--push-interval-ms",
          "60000",
          "--checkpoint-ops",
          "0"};
}

/// POSTs `values` to the node's /ingest in chunks, asserting every ack.
void IngestChunks(std::uint16_t port, const std::vector<Value>& values,
                  std::size_t chunk = 500) {
  for (std::size_t at = 0; at < values.size(); at += chunk) {
    std::string body = "[";
    const std::size_t end = std::min(values.size(), at + chunk);
    for (std::size_t i = at; i < end; ++i) {
      if (i > at) body += ",";
      body += std::to_string(values[i]);
    }
    body += "]";
    const RawResponse ack = Post(port, "/ingest", body);
    ASSERT_EQ(ack.status, 200) << ack.body;
  }
}

void PushNow(std::uint16_t port) {
  const RawResponse pushed = Post(port, "/cluster/push_now", "{}");
  ASSERT_EQ(pushed.status, 200) << pushed.body;
}

/// Splits even-index values to node 1, odd to node 2 — the round-robin a
/// load balancer would apply.
void SplitStream(const std::vector<Value>& data, std::vector<Value>* first,
                 std::vector<Value>* second) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    (i % 2 == 0 ? first : second)->push_back(data[i]);
  }
}

/// The single-process oracle: same selection, same bounds, fed the whole
/// stream.
std::unique_ptr<ServingEngine> MakeOracle(Words footprint,
                                          const std::vector<Value>& data) {
  ServingEngineOptions options;
  static_cast<SynopsisSelection&>(options) = ClusterSelection();
  options.shards = 1;
  options.footprint_bound = footprint;
  auto oracle = std::make_unique<ServingEngine>(options);
  oracle->InsertBatch(data);
  return oracle;
}

/// The oracle's unbounded plan for `query`.
PlannedResponse Ask(const ServingEngine& oracle, const PlannedQuery& query) {
  PlannedResponse response;
  RunPlannedQueryInto(oracle.registry(), query, &response);
  return response;
}

std::string ExpectedEstimateJson(const PlannedResponse& response) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("estimate").Double(response.estimate.value);
  w.Key("ci_low").Double(response.estimate.ci_low);
  w.Key("ci_high").Double(response.estimate.ci_high);
  w.Key("confidence").Double(response.estimate.confidence);
  w.Key("sample_points").Int(response.estimate.sample_points);
  w.Key("method").String(response.method);
  w.EndObject();
  return out;
}

TEST(ClusterE2eTest, TwoIngestClusterMatchesOracleExactly) {
  constexpr Words kFootprint = 4096;  // exact regime for a 2000-op stream
  const std::vector<Value> data = ZipfValues(2000, 50, 1.0, 777);
  std::vector<Value> first, second;
  SplitStream(data, &first, &second);

  ServerProcess aggregator(AggregatorArgs(kFootprint));
  ServerProcess node1(IngestArgs("n1", FreshDataDir("e2e_exact_n1"),
                                 aggregator.port(), kFootprint));
  ServerProcess node2(IngestArgs("n2", FreshDataDir("e2e_exact_n2"),
                                 aggregator.port(), kFootprint));

  IngestChunks(node1.port(), first);
  IngestChunks(node2.port(), second);
  PushNow(node1.port());
  PushNow(node2.port());

  // push_now is synchronous through the commit: by the time both acked,
  // the aggregator has merged both frames.
  const RawResponse status = Fetch(aggregator.port(), "/cluster/status");
  ASSERT_EQ(status.status, 200) << status.body;
  EXPECT_EQ(JsonInt(status.body, "ops_applied"), 2000);
  EXPECT_EQ(JsonInt(status.body, "frames_accepted"), 2);
  EXPECT_EQ(JsonInt(status.body, "frames_deduped"), 0);
  EXPECT_EQ(JsonInt(status.body, "merge_rounds"), 2);

  const std::unique_ptr<ServingEngine> oracle =
      MakeOracle(kFootprint, data);

  // Hot list: identical JSON (the exact regime makes the synopsis state,
  // and therefore the render, deterministic).
  const RawResponse hotlist =
      Fetch(aggregator.port(), "/hotlist?k=10&beta=2");
  ASSERT_EQ(hotlist.status, 200) << hotlist.body;
  const PlannedResponse expected_hot =
      Ask(*oracle, {.kind = QueryKind::kHotList, .k = 10, .beta = 2});
  ASSERT_FALSE(expected_hot.hotlist.empty());
  std::string expected_hot_json;
  {
    JsonWriter w(&expected_hot_json);
    w.BeginObject();
    w.Key("items").BeginArray();
    for (const HotListItem& item : expected_hot.hotlist) {
      w.BeginObject();
      w.Key("value").Int(item.value);
      w.Key("estimated_count").Double(item.estimated_count);
      w.Key("synopsis_count").Int(item.synopsis_count);
      w.EndObject();
    }
    w.EndArray();
    w.Key("method").String(expected_hot.method);
    w.EndObject();
  }
  EXPECT_EQ(StripResponseNs(hotlist.body), expected_hot_json);
  EXPECT_EQ(expected_hot.method, "concise-sample");

  // Frequencies, a range count, and a quantile: identical JSON.
  for (Value v : {Value{1}, Value{2}, Value{17}, Value{49}}) {
    const RawResponse got = Fetch(aggregator.port(),
                                  "/frequency?value=" + std::to_string(v));
    ASSERT_EQ(got.status, 200) << got.body;
    EXPECT_EQ(StripResponseNs(got.body),
              ExpectedEstimateJson(
                  Ask(*oracle, {.kind = QueryKind::kFrequency, .value = v})))
        << "value=" << v;
  }
  const RawResponse counted =
      Fetch(aggregator.port(), "/count_where?low=5&high=25");
  ASSERT_EQ(counted.status, 200) << counted.body;
  EXPECT_EQ(StripResponseNs(counted.body),
            ExpectedEstimateJson(Ask(
                *oracle,
                {.kind = QueryKind::kCountWhere, .range = {5, 25}})));
  const RawResponse quantile = Fetch(aggregator.port(), "/quantile?q=0.5");
  ASSERT_EQ(quantile.status, 200) << quantile.body;
  EXPECT_EQ(StripResponseNs(quantile.body),
            ExpectedEstimateJson(
                Ask(*oracle, {.kind = QueryKind::kQuantile, .q = 0.5})));

  // Cluster ingest roles drop the counting sample, so /delete answers 409
  // (no delete-capable synopsis) instead of silently diverging.
  const RawResponse deleted = Post(node1.port(), "/delete", "[1]");
  EXPECT_EQ(deleted.status, 409) << deleted.body;
}

TEST(ClusterE2eTest, SampledClusterTracksOracleWithinSweepBands) {
  // Sampled regime over real HTTP, one sweep seed at a time: the top hot
  // value must match the stream's true top value, and the merged frequency
  // estimate of that value must sit within a generous band (≈4 sigma of
  // the binomial sampling noise at this footprint).
  RunSeedSweep([](std::uint64_t base) {
    constexpr Words kFootprint = 512;
    constexpr std::int64_t kN = 20000;
    const std::vector<Value> data = ZipfValues(kN, 500, 1.1, base);
    std::vector<Value> first, second;
    SplitStream(data, &first, &second);
    std::int64_t top_value = 0, top_count = 0;
    {
      std::vector<std::int64_t> freq(501, 0);
      for (Value v : data) ++freq[static_cast<std::size_t>(v)];
      for (std::int64_t v = 1; v <= 500; ++v) {
        if (freq[static_cast<std::size_t>(v)] > top_count) {
          top_count = freq[static_cast<std::size_t>(v)];
          top_value = v;
        }
      }
    }

    ServerProcess aggregator(AggregatorArgs(kFootprint));
    ServerProcess node1(
        IngestArgs("n1", FreshDataDir("e2e_swept_n1_" + std::to_string(base)),
                   aggregator.port(), kFootprint));
    ServerProcess node2(
        IngestArgs("n2", FreshDataDir("e2e_swept_n2_" + std::to_string(base)),
                   aggregator.port(), kFootprint));
    IngestChunks(node1.port(), first, 2000);
    IngestChunks(node2.port(), second, 2000);
    PushNow(node1.port());
    PushNow(node2.port());

    const RawResponse status = Fetch(aggregator.port(), "/cluster/status");
    EXPECT_EQ(JsonInt(status.body, "ops_applied"), kN);  // hard bookkeeping

    const RawResponse hotlist =
        Fetch(aggregator.port(), "/hotlist?k=3&beta=2");
    if (hotlist.status != 200) return false;
    const std::int64_t served_top = JsonInt(hotlist.body, "value");
    if (served_top != top_value) return false;

    const RawResponse frequency = Fetch(
        aggregator.port(), "/frequency?value=" + std::to_string(top_value));
    if (frequency.status != 200) return false;
    const double estimate =
        static_cast<double>(JsonInt(frequency.body, "estimate"));
    // Concise sampling noise: est ~ tau * Binomial(f, 1/tau) with
    // tau ≈ n / footprint, sd ≈ sqrt(f * tau).  4.5 sigma.
    const double tau =
        static_cast<double>(kN) / static_cast<double>(kFootprint);
    const double band = 4.5 * std::sqrt(static_cast<double>(top_count) * tau);
    return std::abs(estimate - static_cast<double>(top_count)) <= band;
  });
}

}  // namespace
}  // namespace aqua
