// Top-selling items from a sales-transaction stream — the paper's
// motivating hot-list example ("an example hot list is the top selling
// items in a database of sales transactions", §1.2) — using the full
// ApproximateAnswerEngine (Figure 2): the engine observes the load stream
// next to the warehouse, and answers hot-list queries in microseconds from
// memory while the exact answer would scan the base data.

#include <iostream>

#include "metrics/hotlist_accuracy.h"
#include "metrics/table_printer.h"
#include "plan/planner.h"
#include "warehouse/engine.h"
#include "warehouse/relation.h"
#include "workload/generators.h"

int main() {
  using namespace aqua;

  // One million sales over a 100K-product catalog; product popularity is
  // zipf-distributed (skew 1.1), product ids are the attribute values.
  constexpr std::int64_t kSales = 1000000;
  const std::vector<Value> sales = ZipfValues(kSales, 100000, 1.1, 11);

  EngineOptions options;
  options.footprint_bound = 2000;
  options.seed = 12;
  ApproximateAnswerEngine engine(options);

  Relation warehouse;  // the exact base data, for comparison only
  for (Value product : sales) {
    (void)engine.Observe(StreamOp::Insert(product));
    warehouse.Insert(product);
  }

  PlannedResponse response;
  RunPlannedQueryInto(engine.registry(),
                      {.kind = QueryKind::kHotList, .k = 15, .beta = 3},
                      &response);
  std::cout << "approximate top sellers via " << response.method << " in "
            << response.response_ns / 1000 << " us (no base-data access):\n";

  const std::vector<ValueCount> exact_top =
      ExactTopK(warehouse.ExactCounts(), 15);
  TablePrinter table({"product", "estimated sales", "exact sales",
                      "error %"});
  for (const HotListItem& item : response.hotlist) {
    const auto exact = static_cast<double>(warehouse.FrequencyOf(item.value));
    table.AddRow({TablePrinter::Num(item.value),
                  TablePrinter::Num(item.estimated_count, 0),
                  TablePrinter::Num(exact, 0),
                  TablePrinter::Num(
                      exact > 0
                          ? 100.0 * std::abs(item.estimated_count - exact) /
                                exact
                          : 0.0,
                      2)});
  }
  table.Print(std::cout);

  const HotListAccuracy acc =
      EvaluateHotList(response.hotlist, warehouse.ExactCounts(), 15);
  std::cout << "\nrecall@15 " << acc.Recall(15) << ", precision "
            << acc.Precision() << ", engine footprint "
            << engine.TotalFootprint() << " words vs exact histogram "
            << 2 * warehouse.distinct_values() << " words on disk\n";

  // A quick aggregate too: how many sales came from the top-100 products?
  PlannedResponse count_response;
  RunPlannedQueryInto(engine.registry(),
                      {.kind = QueryKind::kCountWhere, .range = {.high = 100}},
                      &count_response);
  std::cout << "sales of products 1..100: ~" << count_response.estimate.value
            << " (95% CI [" << count_response.estimate.ci_low << ", "
            << count_response.estimate.ci_high << "]) via "
            << count_response.method << "\n";
  return 0;
}
