// Byte pin for every query GET the server answers: the dedicated stream
// routes, the /attr/{name}/... routes and /query, including every 400 and
// 404 they produce.  An in-process server with one shard answers each
// target once over a fresh connection, on both IO backends; status and
// body (with the wall-clock "response_ns" metric removed) must match
// route_golden.txt line for line.
//
// The answers are deterministic: seeded preloads, one ingest shard,
// staleness bounds far beyond the test, and no ingest after the first
// query.  Bounded /query statements are limited to ERROR bounds nothing
// can meet, because the planner's other bounded choices read measured
// latencies.  /stats and a known attribute's /attr/{name}/stats are left
// out for the same reason: they report timings.
//
// To rewrite the golden file after a deliberate change to the bytes, run
//   AQUA_UPDATE_ROUTE_GOLDEN=1 ./route_golden_test
// and review the diff.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/e2e_util.h"
#include "server/io_backend.h"
#include "server/routes.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "warehouse/catalog.h"
#include "workload/generators.h"

namespace aqua {
namespace {

/// SQL text → a /query target (spaces percent-encoded).
std::string Sql(const std::string& statement) {
  std::string target = "/query?q=";
  for (char c : statement) {
    if (c == ' ') {
      target += "%20";
    } else {
      target += c;
    }
  }
  return target;
}

std::vector<std::string> Targets() {
  std::vector<std::string> targets = {
      "/healthz",
      "/hotlist",
      "/hotlist?k=3&beta=1",
      "/hotlist?k=0&beta=0",
      "/hotlist?k=5&beta=50",
      "/hotlist?k=-1",
      "/hotlist?beta=-2",
      "/hotlist?k=x",
      "/hotlist?beta=x",
      "/frequency?value=1",
      "/frequency?value=7",
      "/frequency?value=123456",
      "/frequency?value=-5",
      "/frequency",
      "/frequency?value=",
      "/frequency?value=1.5",
      "/count_where",
      "/count_where?low=1&high=10",
      "/count_where?low=5&high=1",
      "/count_where?low=1&high=100&confidence=0.5",
      "/count_where?confidence=1",
      "/count_where?confidence=0",
      "/count_where?low=x",
      "/count_where?high=1.5",
      "/quantile",
      "/quantile?q=0",
      "/quantile?q=1",
      "/quantile?q=0.9&confidence=0.99",
      "/quantile?q=1.5",
      "/quantile?q=-0.1",
      "/quantile?confidence=1",
      "/quantile?q=x",
      "/distinct",
      "/distinct?ignored=1",
      "/nope",
      "/ingest",
  };
  for (const std::string attr : {"price", "region"}) {
    const std::string base = "/attr/" + attr + "/";
    for (const std::string suffix :
         {"hotlist", "hotlist?k=3&beta=1", "hotlist?k=0&beta=1",
          "hotlist?k=0&beta=5", "hotlist?k=-1", "frequency?value=1",
          "frequency?value=123456", "frequency", "count_where",
          "count_where?low=1&high=10", "count_where?confidence=2",
          "quantile?q=0.5", "quantile?q=0.1&confidence=0.9", "quantile?q=2",
          "distinct", "nope", ""}) {
      targets.push_back(base + suffix);
    }
  }
  for (const std::string suffix :
       {"hotlist", "hotlist?k=-1", "frequency", "frequency?value=1",
        "count_where", "count_where?confidence=5", "quantile",
        "quantile?q=7", "distinct", "stats", "nope"}) {
    targets.push_back("/attr/nosuch/" + suffix);
  }
  for (const std::string bad :
       {"/attr/price", "/attr/", "/attr//hotlist", "/attr/price/hotlist/x"}) {
    targets.push_back(bad);
  }
  targets.push_back("/query");
  targets.push_back("/query?q=");
  targets.push_back(Sql("garbage"));
  targets.push_back(Sql("SELECT APPROX(COUNT(*)) FROM nosuch"));
  for (const std::string from : {"stream", "price", "region"}) {
    for (const std::string agg :
         {"APPROX(TOP(3))", "APPROX(TOP(0))", "APPROX(FREQUENCY(1))",
          "APPROX(COUNT(*))", "APPROX(COUNT(DISTINCT *))", "APPROX(MEDIAN)",
          "APPROX(QUANTILE(0.9))"}) {
      targets.push_back(Sql("SELECT " + agg + " FROM " + from));
    }
    targets.push_back(Sql("SELECT APPROX(COUNT(*)) FROM " + from +
                          " WHERE v BETWEEN 1 AND 10 CONFIDENCE 0.9"));
    targets.push_back(Sql("SELECT APPROX(COUNT(*)) FROM " + from +
                          " WHERE v BETWEEN 1 AND 10 ERROR 0.0000001"));
    targets.push_back(Sql("SELECT APPROX(TOP(3)) FROM " + from +
                          " ERROR 0.0000001"));
  }
  return targets;
}

class RouteGolden : public ::testing::TestWithParam<IoBackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == IoBackendKind::kIoUring) {
      std::string reason;
      if (!IoUringAvailable(&reason)) {
        GTEST_SKIP() << "io_uring unavailable: " << reason;
      }
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    IoBackends, RouteGolden,
    ::testing::Values(IoBackendKind::kEpoll, IoBackendKind::kIoUring),
    [](const ::testing::TestParamInfo<IoBackendKind>& info) {
      return std::string(IoBackendKindName(info.param));
    });

TEST_P(RouteGolden, EveryQueryGetMatchesTheGoldenFile) {
  ServingEngineOptions engine_options;
  engine_options.shards = 1;
  engine_options.cache_max_stale_ops = std::numeric_limits<std::int64_t>::max();
  engine_options.cache_max_stale_interval = std::chrono::hours(24);
  ServingEngine engine(engine_options);

  CatalogOptions catalog_options;
  catalog_options.shards = 1;
  catalog_options.cache_max_stale_ops =
      std::numeric_limits<std::int64_t>::max();
  catalog_options.cache_max_stale_interval = std::chrono::hours(24);
  SynopsisCatalog catalog(/*total_budget_words=*/2048, catalog_options);
  AttributeOptions price;
  price.weight = 3.0;
  ASSERT_TRUE(catalog.RegisterAttribute("price", price).ok());
  // Concise-only: its hot list reports against the query's beta.
  AttributeOptions region;
  region.maintain_traditional = false;
  region.maintain_counting = false;
  region.maintain_distinct_sketch = false;
  ASSERT_TRUE(catalog.RegisterAttribute("region", region).ok());
  ASSERT_TRUE(catalog.Seal().ok());

  engine.InsertBatch(ZipfValues(20000, 200, 1.0, 424242));
  ASSERT_TRUE(
      catalog.InsertBatch("price", ZipfValues(15000, 150, 1.2, 7)).ok());
  ASSERT_TRUE(
      catalog.InsertBatch("region", ZipfValues(12000, 400, 0.8, 11)).ok());

  HttpServerOptions server_options;
  server_options.reactors = 1;
  server_options.workers = 1;
  server_options.io_backend = GetParam();
  HttpServer server(server_options);
  RegisterServingRoutes(server, engine);
  RegisterCatalogRoutes(server, catalog);
  RegisterQueryRoutes(server, engine, &catalog);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.io_backend(), GetParam());

  std::vector<std::string> lines;
  for (const std::string& target : Targets()) {
    const e2e::RawResponse response = e2e::Fetch(server.port(), target);
    lines.push_back(target + " " + std::to_string(response.status) + " " +
                    e2e::StripResponseNs(response.body));
  }
  server.Shutdown();

  const char* update = std::getenv("AQUA_UPDATE_ROUTE_GOLDEN");
  if (update != nullptr && std::string(update) == "1" &&
      GetParam() == IoBackendKind::kEpoll) {
    std::ofstream out(AQUA_ROUTE_GOLDEN);
    for (const std::string& line : lines) out << line << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << AQUA_ROUTE_GOLDEN;
    return;
  }

  std::ifstream in(AQUA_ROUTE_GOLDEN);
  ASSERT_TRUE(in.good()) << "missing " << AQUA_ROUTE_GOLDEN;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]) << "line " << (i + 1);
  }
}

}  // namespace
}  // namespace aqua
