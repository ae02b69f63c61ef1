// Budget invariants of the multi-attribute catalog (§1: many synopses must
// share memory that "remains a precious resource"): weighted shares never
// exceed the global budget, per-attribute footprints stay within their
// shares even under heavily skewed ingest, and the lifecycle errors
// (re-seal, observe-before-seal, degenerate weights) are all rejected.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "plan/planner.h"
#include "warehouse/catalog.h"
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

TEST(CatalogBudgetTest, SumOfSharesNeverExceedsBudget) {
  SynopsisCatalog catalog(10000, 1);
  AttributeOptions heavy;
  heavy.weight = 2.5;
  AttributeOptions light;
  light.weight = 0.7;
  ASSERT_TRUE(catalog.RegisterAttribute("a", heavy).ok());
  ASSERT_TRUE(catalog.RegisterAttribute("b").ok());  // weight 1.0
  ASSERT_TRUE(catalog.RegisterAttribute("c", light).ok());
  ASSERT_TRUE(catalog.Seal().ok());

  Words total_share = 0;
  for (const std::string& name : catalog.AttributeNames()) {
    total_share += catalog.ShareOf(name);
  }
  EXPECT_LE(total_share, catalog.budget());
  // floor() per attribute loses less than one word per attribute.
  EXPECT_GE(total_share, catalog.budget() - 3);
}

TEST(CatalogBudgetTest, RejectsZeroAndNegativeWeights) {
  SynopsisCatalog catalog(10000, 2);
  AttributeOptions zero;
  zero.weight = 0.0;
  EXPECT_TRUE(catalog.RegisterAttribute("z", zero).IsInvalidArgument());
  AttributeOptions negative;
  negative.weight = -1.5;
  EXPECT_TRUE(catalog.RegisterAttribute("n", negative).IsInvalidArgument());
  EXPECT_EQ(catalog.attribute_count(), 0u);
}

TEST(CatalogBudgetTest, RejectsNonFiniteWeightsAndSums) {
  SynopsisCatalog catalog(10000, 2);
  AttributeOptions nan;
  nan.weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(catalog.RegisterAttribute("nan", nan).IsInvalidArgument());
  AttributeOptions inf;
  inf.weight = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(catalog.RegisterAttribute("inf", inf).IsInvalidArgument());
  EXPECT_EQ(catalog.attribute_count(), 0u);

  // Each weight is finite, their sum is not: Seal refuses instead of
  // carving shares out of an infinite total.
  AttributeOptions huge;
  huge.weight = 1e308;
  ASSERT_TRUE(catalog.RegisterAttribute("a", huge).ok());
  ASSERT_TRUE(catalog.RegisterAttribute("b", huge).ok());
  EXPECT_TRUE(catalog.Seal().IsInvalidArgument());
  EXPECT_FALSE(catalog.sealed());
}

TEST(CatalogBudgetTest, FootprintStaysWithinShareUnderSkewedIngest) {
  CatalogOptions options;
  options.seed = 3;
  options.shards = 2;  // exercise the per-shard division too
  SynopsisCatalog catalog(8000, options);
  AttributeOptions heavy;
  heavy.weight = 3.0;
  ASSERT_TRUE(catalog.RegisterAttribute("skewed", heavy).ok());
  ASSERT_TRUE(catalog.RegisterAttribute("uniform").ok());
  ASSERT_TRUE(catalog.Seal().ok());

  // Hammer one attribute with a heavy-tailed stream and the other with a
  // wide uniform one; neither may outgrow its share.
  ASSERT_TRUE(
      catalog.InsertBatch("skewed", ZipfValues(200000, 5000, 1.3, 4)).ok());
  ASSERT_TRUE(
      catalog.InsertBatch("uniform", UniformValues(200000, 20000, 5)).ok());

  for (const std::string& name : catalog.AttributeNames()) {
    const SynopsisRegistry* registry = catalog.registry(name);
    ASSERT_NE(registry, nullptr);
    EXPECT_LE(registry->TotalFootprint(), catalog.ShareOf(name)) << name;
  }
  EXPECT_LE(catalog.TotalFootprint(), catalog.budget());
}

TEST(CatalogBudgetTest, LifecycleErrors) {
  SynopsisCatalog catalog(4000, 6);
  ASSERT_TRUE(catalog.RegisterAttribute("a").ok());

  // Query and ingest both require Seal() first.
  EXPECT_TRUE(catalog.Observe("a", StreamOp::Insert(1))
                  .IsFailedPrecondition());
  EXPECT_TRUE(catalog.RegistryFor("a").status().IsFailedPrecondition());

  ASSERT_TRUE(catalog.Seal().ok());
  EXPECT_TRUE(catalog.Seal().IsFailedPrecondition());  // re-seal
  EXPECT_TRUE(catalog.RegisterAttribute("late").IsFailedPrecondition());
}

TEST(CatalogBudgetTest, StarvedSketchAndSampleSharesRejected) {
  // Each attribute's share must cover the sketch's fixed words...
  SynopsisCatalog sketch_starved(200, 7);
  ASSERT_TRUE(sketch_starved.RegisterAttribute("a").ok());
  ASSERT_TRUE(sketch_starved.RegisterAttribute("b").ok());
  EXPECT_TRUE(sketch_starved.Seal().IsResourceExhausted());

  // ...and leave a usable slice per sample synopsis after the carve
  // (120 words / 3 attributes / 3 sample synopses = 13 < the 16 minimum).
  SynopsisCatalog sample_starved(120, 8);
  AttributeOptions samples_only;
  samples_only.maintain_distinct_sketch = false;
  ASSERT_TRUE(sample_starved.RegisterAttribute("a", samples_only).ok());
  ASSERT_TRUE(sample_starved.RegisterAttribute("b", samples_only).ok());
  ASSERT_TRUE(sample_starved.RegisterAttribute("c", samples_only).ok());
  EXPECT_TRUE(sample_starved.Seal().IsResourceExhausted());
}

TEST(CatalogBudgetTest, CountWhereAndDistinctPerAttribute) {
  // Satellite coverage for the catalog's two new query kinds: estimates
  // answer per attribute and track that attribute's stream, not another's.
  SynopsisCatalog catalog(12000, 9);
  ASSERT_TRUE(catalog.RegisterAttribute("narrow").ok());
  ASSERT_TRUE(catalog.RegisterAttribute("wide").ok());
  ASSERT_TRUE(catalog.Seal().ok());

  ASSERT_TRUE(
      catalog.InsertBatch("narrow", UniformValues(100000, 100, 10)).ok());
  ASSERT_TRUE(
      catalog.InsertBatch("wide", UniformValues(100000, 4000, 11)).ok());

  // narrow: ~half the stream falls in [1, 50].
  const PlannedQuery at_most_50 = {.kind = QueryKind::kCountWhere,
                                   .range = {.high = 50}};
  const auto narrow_count = Ask(catalog, "narrow", at_most_50);
  ASSERT_TRUE(narrow_count.ok());
  EXPECT_NEAR(narrow_count->estimate.value, 50000.0, 20000.0);

  // wide: only ~1.25% does.
  const auto wide_count = Ask(catalog, "wide", at_most_50);
  ASSERT_TRUE(wide_count.ok());
  EXPECT_LT(wide_count->estimate.value, 15000.0);

  const PlannedQuery distinct = {.kind = QueryKind::kDistinct};
  const auto narrow_distinct = Ask(catalog, "narrow", distinct);
  ASSERT_TRUE(narrow_distinct.ok());
  EXPECT_EQ(narrow_distinct->method, "fm-sketch");
  EXPECT_GT(narrow_distinct->estimate.value, 100.0 / 3.0);
  EXPECT_LT(narrow_distinct->estimate.value, 100.0 * 3.0);

  const auto wide_distinct = Ask(catalog, "wide", distinct);
  ASSERT_TRUE(wide_distinct.ok());
  EXPECT_GT(wide_distinct->estimate.value, narrow_distinct->estimate.value);

  EXPECT_TRUE(Ask(catalog, "nope", at_most_50).status().IsNotFound());
  EXPECT_TRUE(Ask(catalog, "nope", distinct).status().IsNotFound());
}

}  // namespace
}  // namespace aqua
