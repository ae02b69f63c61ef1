// End-to-end test of the multi-attribute catalog serving path: spawns
// aqua_serve with two --attr registrations, ingests a distinct stream into
// each over HTTP, and checks that /attr/{name}/hotlist and
// /attr/{name}/frequency answer exactly what an in-process SynopsisCatalog
// fed the identical streams answers (the catalog runs its registries with
// one shard, so snapshots are deterministic copies), and that unknown
// attributes answer 404 — never 500.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/planner.h"
#include "server/e2e_util.h"
#include "server/json.h"
#include "warehouse/catalog.h"
#include "workload/generators.h"

namespace aqua {
namespace {

using namespace e2e;  // NOLINT(build/namespaces): test-local helpers

constexpr Words kBudget = 8192;

std::vector<Value> ItemStream() { return ZipfValues(20000, 300, 1.2, 55); }
std::vector<Value> RegionStream() { return UniformValues(10000, 80, 66); }

std::string ToJsonArray(const std::vector<Value>& values) {
  std::string body = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body += ",";
    body += std::to_string(values[i]);
  }
  body += "]";
  return body;
}

/// The in-process reference: same budget, weights, seed, staleness bound
/// and (single-shard) registries as the spawned server, fed the same
/// per-attribute batches in the same order.
class CatalogE2eTest : public ::testing::Test {
 protected:
  CatalogE2eTest()
      : server_({"--attr", "item:2", "--attr", "region", "--catalog-budget",
                 std::to_string(kBudget), "--cache-stale-ops", "1"}),
        reference_(kBudget, ReferenceOptions()) {
    AttributeOptions heavy;
    heavy.weight = 2.0;
    EXPECT_TRUE(reference_.RegisterAttribute("item", heavy).ok());
    EXPECT_TRUE(reference_.RegisterAttribute("region").ok());
    EXPECT_TRUE(reference_.Seal().ok());
  }

  static CatalogOptions ReferenceOptions() {
    CatalogOptions options;
    options.cache_max_stale_ops = 1;
    return options;
  }

  void IngestBoth() {
    const std::vector<Value> items = ItemStream();
    const std::vector<Value> regions = RegionStream();
    const RawResponse item_response =
        Post(server_.port(), "/attr/item/ingest", ToJsonArray(items));
    ASSERT_EQ(item_response.status, 200) << item_response.body;
    const RawResponse region_response =
        Post(server_.port(), "/attr/region/ingest", ToJsonArray(regions));
    ASSERT_EQ(region_response.status, 200) << region_response.body;
    ASSERT_TRUE(reference_.InsertBatch("item", items).ok());
    ASSERT_TRUE(reference_.InsertBatch("region", regions).ok());
  }

  /// The reference's unbounded plan for `query` on the attribute.
  PlannedResponse Expected(const std::string& attribute,
                           const PlannedQuery& query) {
    PlannedResponse expected;
    const SynopsisRegistry* registry = reference_.registry(attribute);
    EXPECT_NE(registry, nullptr) << attribute;
    if (registry != nullptr) RunPlannedQueryInto(*registry, query, &expected);
    return expected;
  }

  std::string ExpectedHotListJson(const std::string& attribute,
                                  const PlannedQuery& query) {
    const PlannedResponse expected = Expected(attribute, query);
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
    return w.TakeString();
  }

  std::string ExpectedFrequencyJson(const std::string& attribute, Value v) {
    const PlannedResponse expected =
        Expected(attribute, {.kind = QueryKind::kFrequency, .value = v});
    JsonWriter w;
    w.BeginObject();
    w.Key("estimate").Double(expected.estimate.value);
    w.Key("ci_low").Double(expected.estimate.ci_low);
    w.Key("ci_high").Double(expected.estimate.ci_high);
    w.Key("confidence").Double(expected.estimate.confidence);
    w.Key("sample_points").Int(expected.estimate.sample_points);
    w.Key("method").String(expected.method);
    w.EndObject();
    return w.TakeString();
  }

  ServerProcess server_;
  SynopsisCatalog reference_;
};

TEST_F(CatalogE2eTest, HotListsMatchInProcessCatalogPerAttribute) {
  IngestBoth();
  const PlannedQuery query = {.kind = QueryKind::kHotList, .k = 8, .beta = 3};
  for (const std::string attribute : {"item", "region"}) {
    const RawResponse got =
        Fetch(server_.port(), "/attr/" + attribute + "/hotlist?k=8&beta=3");
    ASSERT_EQ(got.status, 200) << got.body;
    EXPECT_EQ(StripResponseNs(got.body),
              ExpectedHotListJson(attribute, query))
        << attribute;
  }
  // The two attributes see different streams, so their hot lists differ.
  EXPECT_NE(ExpectedHotListJson("item", query),
            ExpectedHotListJson("region", query));
}

TEST_F(CatalogE2eTest, FrequenciesMatchInProcessCatalogPerAttribute) {
  IngestBoth();
  for (const std::string attribute : {"item", "region"}) {
    for (Value v : {Value{1}, Value{2}, Value{40}}) {
      const RawResponse got =
          Fetch(server_.port(), "/attr/" + attribute +
                                    "/frequency?value=" + std::to_string(v));
      ASSERT_EQ(got.status, 200) << got.body;
      EXPECT_EQ(StripResponseNs(got.body),
                ExpectedFrequencyJson(attribute, v))
          << attribute << " value=" << v;
    }
  }
}

TEST_F(CatalogE2eTest, UnknownAttributeAnswers404Not500) {
  IngestBoth();
  for (const std::string target :
       {"/attr/nope/hotlist", "/attr/nope/frequency?value=1",
        "/attr/nope/count_where?low=1&high=2", "/attr/nope/distinct",
        "/attr/nope/stats"}) {
    const RawResponse got = Fetch(server_.port(), target);
    EXPECT_EQ(got.status, 404) << target << ": " << got.body;
  }
  EXPECT_EQ(Post(server_.port(), "/attr/nope/ingest", "[1]").status, 404);

  // Malformed /attr paths are 404 too, and an unsupported method on a
  // known prefix is 405 (the route is known, the method is not).
  EXPECT_EQ(Fetch(server_.port(), "/attr/item").status, 404);
  EXPECT_EQ(Fetch(server_.port(), "/attr/").status, 404);
  EXPECT_EQ(Fetch(server_.port(), "/attr/item/bogus").status, 404);
  const int fd = ConnectTo(server_.port());
  SendRequest(fd, "DELETE", "/attr/item/hotlist");
  EXPECT_EQ(ReadResponse(fd).status, 405);
  close(fd);
}

TEST_F(CatalogE2eTest, StatsCountWhereDistinctAndDeletesServePerAttribute) {
  IngestBoth();

  const RawResponse stats = Fetch(server_.port(), "/attr/item/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"inserts\":20000"), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"share_words\":"), std::string::npos);

  const RawResponse count =
      Fetch(server_.port(), "/attr/region/count_where?low=1&high=40");
  ASSERT_EQ(count.status, 200);
  EXPECT_NE(count.body.find("\"method\":"), std::string::npos);

  const RawResponse distinct = Fetch(server_.port(), "/attr/region/distinct");
  ASSERT_EQ(distinct.status, 200);
  EXPECT_NE(distinct.body.find("\"method\":\"fm-sketch\""),
            std::string::npos)
      << distinct.body;

  // Deletes route to the attribute's counting sample and invalidate its
  // concise sample only; the other attribute is untouched.
  const RawResponse deleted =
      Post(server_.port(), "/attr/region/delete", "[1]");
  ASSERT_EQ(deleted.status, 200) << deleted.body;
  const RawResponse after = Fetch(server_.port(), "/attr/region/stats");
  EXPECT_NE(after.body.find("\"deletes\":1"), std::string::npos)
      << after.body;
  const RawResponse item_stats = Fetch(server_.port(), "/attr/item/stats");
  EXPECT_NE(item_stats.body.find("\"deletes\":0"), std::string::npos)
      << item_stats.body;
}

}  // namespace
}  // namespace aqua
