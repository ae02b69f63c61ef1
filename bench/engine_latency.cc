// The paper's headline motivation (§1): "provide an estimated response in
// orders of magnitude less time than the time to compute an exact answer,
// by avoiding or minimizing the number of accesses to the base data."
// This bench measures end-to-end query latency of the approximate answer
// engine (Figure 2) against computing the exact answer from the base data,
// for hot-list and count queries, as the warehouse grows.

#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "metrics/hotlist_accuracy.h"
#include "metrics/table_printer.h"
#include "plan/planner.h"
#include "warehouse/engine.h"

int main(int argc, char** argv) {
  using namespace aqua;
  using namespace aqua::bench;
  ApplySmoke(argc, argv);

  PrintHeader(
      "Approximate vs exact answer latency (hot list k=10; count "
      "predicate), footprint 1000, zipf 1.1");
  TablePrinter table({"warehouse n", "approx hot-list us", "exact scan us",
                      "speedup", "hot-list recall@10", "approx count err %"});

  for (std::int64_t n : {std::int64_t{100000}, std::int64_t{1000000},
                         std::int64_t{4000000}}) {
    n = SmokeCap(n);
    const std::vector<Value> data =
        ZipfValues(n, 50000, 1.1, TrialSeed(9980, 0));
    EngineOptions options;
    options.footprint_bound = 1000;
    options.seed = 1;
    ApproximateAnswerEngine engine(options);
    for (Value v : data) (void)engine.Observe(StreamOp::Insert(v));

    // Approximate hot list (no base-data access).
    constexpr int kQueries = 50;
    auto t0 = std::chrono::steady_clock::now();
    PlannedResponse approx;
    for (int q = 0; q < kQueries; ++q) {
      RunPlannedQueryInto(engine.registry(),
                          {.kind = QueryKind::kHotList, .k = 10, .beta = 3},
                          &approx);
    }
    auto t1 = std::chrono::steady_clock::now();
    const double approx_us =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count()) /
        kQueries;

    // Exact answer: one full pass over the base data (the warehouse side
    // of Figure 1) building the frequency table and selecting the top.
    t0 = std::chrono::steady_clock::now();
    Relation exact_scan;
    for (Value v : data) exact_scan.Insert(v);
    const std::vector<ValueCount> exact_top =
        ExactTopK(exact_scan.ExactCounts(), 10);
    t1 = std::chrono::steady_clock::now();
    const double exact_us = static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());

    const HotListAccuracy acc =
        EvaluateHotList(approx.hotlist, exact_scan.ExactCounts(), 10);

    // Approximate COUNT(v <= 100) error.
    PlannedResponse count_answer;
    RunPlannedQueryInto(
        engine.registry(),
        {.kind = QueryKind::kCountWhere, .range = {.high = 100}},
        &count_answer);
    std::int64_t truth = 0;
    for (Value v : data) truth += (v <= 100);
    const double count_err =
        100.0 * std::abs(count_answer.estimate.value -
                         static_cast<double>(truth)) /
        static_cast<double>(truth);

    table.AddRow({TablePrinter::Num(n), TablePrinter::Num(approx_us, 1),
                  TablePrinter::Num(exact_us, 0),
                  TablePrinter::Num(exact_us / approx_us, 0),
                  TablePrinter::Num(acc.Recall(10), 2),
                  TablePrinter::Num(count_err, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nThe approximate path is independent of n (it reads only "
               "the synopsis); the exact path scans the base data — an "
               "in-memory scan here, so disk-resident warehouses would "
               "widen the gap by further orders of magnitude.\n";
  return 0;
}
