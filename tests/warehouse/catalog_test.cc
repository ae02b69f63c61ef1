#include "warehouse/catalog.h"

#include <gtest/gtest.h>

#include "core/counting_sample.h"
#include "plan/planner.h"
#include "workload/generators.h"

namespace aqua {
namespace {

/// One unbounded plan on an attribute's registry, or the lookup's error.
Result<PlannedResponse> Ask(const SynopsisCatalog& catalog,
                            std::string_view attribute,
                            const PlannedQuery& query) {
  AQUA_ASSIGN_OR_RETURN(const SynopsisRegistry* registry,
                        catalog.RegistryFor(attribute));
  PlannedResponse response;
  RunPlannedQueryInto(*registry, query, &response);
  return response;
}

TEST(SynopsisCatalogTest, RegistrationRules) {
  SynopsisCatalog catalog(10000, 1);
  EXPECT_TRUE(catalog.RegisterAttribute("sales.item").ok());
  EXPECT_TRUE(catalog.RegisterAttribute("sales.item")
                  .code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.RegisterAttribute("").IsInvalidArgument());
  AttributeOptions bad;
  bad.weight = 0.0;
  EXPECT_TRUE(catalog.RegisterAttribute("x", bad).IsInvalidArgument());
  EXPECT_FALSE(catalog.sealed());
}

TEST(SynopsisCatalogTest, SealSplitsBudgetByWeight) {
  SynopsisCatalog catalog(12000, 2);
  AttributeOptions heavy;
  heavy.weight = 2.0;
  ASSERT_TRUE(catalog.RegisterAttribute("hot", heavy).ok());
  ASSERT_TRUE(catalog.RegisterAttribute("cold").ok());  // weight 1
  ASSERT_TRUE(catalog.Seal().ok());
  EXPECT_EQ(catalog.ShareOf("hot"), 8000);
  EXPECT_EQ(catalog.ShareOf("cold"), 4000);
  EXPECT_NE(catalog.registry("hot"), nullptr);
  EXPECT_EQ(catalog.registry("unknown"), nullptr);
}

TEST(SynopsisCatalogTest, SealRejectsStarvedAttributes) {
  SynopsisCatalog catalog(40, 3);
  ASSERT_TRUE(catalog.RegisterAttribute("a").ok());
  ASSERT_TRUE(catalog.RegisterAttribute("b").ok());
  EXPECT_TRUE(catalog.Seal().IsResourceExhausted());
}

TEST(SynopsisCatalogTest, SealRequiresAttributesAndSynopses) {
  SynopsisCatalog empty(1000, 4);
  EXPECT_TRUE(empty.Seal().IsFailedPrecondition());

  SynopsisCatalog none(1000, 5);
  AttributeOptions no_synopses;
  no_synopses.maintain_traditional = false;
  no_synopses.maintain_concise = false;
  no_synopses.maintain_counting = false;
  no_synopses.maintain_distinct_sketch = false;
  ASSERT_TRUE(none.RegisterAttribute("a", no_synopses).ok());
  EXPECT_TRUE(none.Seal().IsInvalidArgument());
}

TEST(SynopsisCatalogTest, ObserveBeforeSealFails) {
  SynopsisCatalog catalog(1000, 6);
  ASSERT_TRUE(catalog.RegisterAttribute("a").ok());
  EXPECT_TRUE(catalog.Observe("a", StreamOp::Insert(1))
                  .IsFailedPrecondition());
}

TEST(SynopsisCatalogTest, RoutesOpsAndQueriesPerAttribute) {
  SynopsisCatalog catalog(8000, 7);
  ASSERT_TRUE(catalog.RegisterAttribute("products").ok());
  ASSERT_TRUE(catalog.RegisterAttribute("regions").ok());
  ASSERT_TRUE(catalog.Seal().ok());

  for (Value v : ZipfValues(100000, 1000, 1.25, 8)) {
    ASSERT_TRUE(catalog.Observe("products", StreamOp::Insert(v)).ok());
  }
  for (Value v : ZipfValues(50000, 50, 0.8, 9)) {
    ASSERT_TRUE(catalog.Observe("regions", StreamOp::Insert(v)).ok());
  }
  EXPECT_TRUE(catalog.Observe("nope", StreamOp::Insert(1)).IsNotFound());

  auto products = Ask(catalog, "products",
                      {.kind = QueryKind::kHotList, .k = 5, .beta = 3});
  ASSERT_TRUE(products.ok());
  EXPECT_FALSE(products->hotlist.empty());
  EXPECT_EQ(products->method, "counting-sample");

  auto freq =
      Ask(catalog, "regions", {.kind = QueryKind::kFrequency, .value = 1});
  ASSERT_TRUE(freq.ok());
  EXPECT_GT(freq->estimate.value, 0.0);

  EXPECT_FALSE(
      Ask(catalog, "nope", {.kind = QueryKind::kHotList, .k = 1}).ok());
  // The two engines are independent: products' hot value 1 has a far
  // larger estimate than regions' (different stream sizes and skews).
  auto regions = Ask(catalog, "regions",
                     {.kind = QueryKind::kHotList, .k = 1, .beta = 3});
  ASSERT_TRUE(regions.ok());
}

TEST(SynopsisCatalogTest, StaysWithinGlobalBudget) {
  SynopsisCatalog catalog(6000, 10);
  ASSERT_TRUE(catalog.RegisterAttribute("a").ok());
  ASSERT_TRUE(catalog.RegisterAttribute("b").ok());
  ASSERT_TRUE(catalog.RegisterAttribute("c").ok());
  ASSERT_TRUE(catalog.Seal().ok());
  for (Value v : ZipfValues(150000, 5000, 1.0, 11)) {
    ASSERT_TRUE(catalog.Observe("a", StreamOp::Insert(v)).ok());
    ASSERT_TRUE(catalog.Observe("b", StreamOp::Insert(v / 2 + 1)).ok());
    ASSERT_TRUE(catalog.Observe("c", StreamOp::Insert(v % 100)).ok());
  }
  EXPECT_LE(catalog.TotalFootprint(), catalog.budget());
}

TEST(SynopsisCatalogTest, DeletesRouteToCountingSamples) {
  SynopsisCatalog catalog(4000, 12);
  ASSERT_TRUE(catalog.RegisterAttribute("a").ok());
  ASSERT_TRUE(catalog.Seal().ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(catalog.Observe("a", StreamOp::Insert(7)).ok());
  }
  ASSERT_TRUE(catalog.Observe("a", StreamOp::Delete(7)).ok());
  const SynopsisRegistry* registry = catalog.registry("a");
  ASSERT_NE(registry, nullptr);
  const auto counting =
      registry->StateCopy<CountingSample>(kCountingSynopsisName);
  ASSERT_TRUE(counting.ok());
  EXPECT_EQ(counting.ValueOrDie().CountOf(7), 999);
  // The concise sample is invalidated by the first delete (§4.1).
  const SynopsisHandle* concise = registry->handle(kConciseSynopsisName);
  ASSERT_NE(concise, nullptr);
  EXPECT_FALSE(concise->valid());
}

}  // namespace
}  // namespace aqua
