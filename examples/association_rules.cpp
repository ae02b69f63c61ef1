// Hot lists over 2-itemsets for association rules (§1.2: "hot lists can be
// maintained on … pairs of values … e.g., they can be maintained on
// k-itemsets for any specified k, and used to produce association rules
// [AS94, BMUT97]").  Each market basket contributes all its item pairs,
// encoded into single values; a counting sample over the pair stream finds
// the largest 2-itemsets, from which confidence-scored rules are derived.

#include <algorithm>
#include <iostream>

#include "container/flat_hash_map.h"
#include "core/counting_sample.h"
#include "hotlist/counting_hot_list.h"
#include "metrics/table_printer.h"
#include "workload/generators.h"

int main() {
  using namespace aqua;

  constexpr std::int64_t kBaskets = 300000;
  constexpr int kItemsPerBasket = 4;  // 6 pairs per basket
  constexpr std::int64_t kItemDomain = 5000;
  const std::vector<Value> pair_stream =
      PairItemsetValues(kBaskets, kItemDomain, 1.1, kItemsPerBasket, 41);

  // Pair-itemset synopsis plus exact single-item supports (cheap: one
  // counter per present item — the "1-itemsets" any Apriori pass keeps).
  CountingSample pairs(
      CountingSampleOptions{.footprint_bound = 4000, .seed = 42});
  FlatHashMap<Value, Count> item_baskets;
  for (Value pair : pair_stream) {
    pairs.Insert(pair);
    const auto [a, b] = DecodeItemPair(pair);
    // Each item of a basket appears in kItemsPerBasket-1 of its pairs;
    // count basket membership fractionally.
    ++item_baskets[a];
    ++item_baskets[b];
  }
  const double pairs_per_item = kItemsPerBasket - 1;

  std::cout << "baskets " << kBaskets << ", pair stream length "
            << pair_stream.size() << ", synopsis footprint "
            << pairs.Footprint() << " words (a full pair histogram could "
            << "need one counter per co-occurring pair)\n\n";

  // The largest 2-itemsets, with confidence of the rule {a} -> {b}
  // (support(a,b) / support(a)) in both directions.
  TablePrinter table({"itemset", "est. support (baskets)",
                      "conf a->b %", "conf b->a %"});
  const HotList hot = CountingHotList(pairs).Report({.k = 12, .beta = 3});
  for (const HotListItem& item : hot) {
    const auto [a, b] = DecodeItemPair(item.value);
    const double support_ab = item.estimated_count;
    const Count* sa = item_baskets.Find(a);
    const Count* sb = item_baskets.Find(b);
    const double baskets_a =
        sa != nullptr ? static_cast<double>(*sa) / pairs_per_item : 0.0;
    const double baskets_b =
        sb != nullptr ? static_cast<double>(*sb) / pairs_per_item : 0.0;
    std::string pair = "{";
    pair.append(std::to_string(a)).append(",").append(std::to_string(b));
    pair.push_back('}');
    table.AddRow(
        {pair,
         TablePrinter::Num(support_ab, 0),
         TablePrinter::Num(
             baskets_a > 0 ? std::min(100.0, 100.0 * support_ab / baskets_a)
                           : 0.0,
             1),
         TablePrinter::Num(
             baskets_b > 0 ? std::min(100.0, 100.0 * support_ab / baskets_b)
                           : 0.0,
             1)});
  }
  table.Print(std::cout);

  std::cout << "\nDetecting newly-large itemsets without counting all "
            << "O(|items|^2) pairs is exactly the probabilistic admission "
            << "game of §1.2: a pair is admitted after ~tau occurrences and "
            << "counted exactly from then on.\n";
  return 0;
}
