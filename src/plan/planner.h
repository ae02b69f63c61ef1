#ifndef AQUA_PLAN_PLANNER_H_
#define AQUA_PLAN_PLANNER_H_

#include <cstdint>
#include <limits>
#include <string_view>

#include "estimate/aggregates.h"
#include "hotlist/hot_list.h"
#include "registry/query_response.h"
#include "registry/registry.h"

namespace aqua {

/// The bounds a client may attach to a query.  Unset bounds are sentinels
/// (max_error <= 0, deadline_ns <= 0) so a default-constructed bound means
/// "unbounded" — the planner then reproduces the §6 accuracy ordering
/// exactly.
struct QueryBound {
  /// Requested worst-case relative error in (0, 1]; <= 0 means no bound.
  double max_error = 0.0;
  /// Confidence the error bound must hold at (and the confidence passed to
  /// interval-producing answer functions).
  double confidence = 0.95;
  /// Requested answer deadline in nanoseconds; <= 0 means no deadline.
  std::int64_t deadline_ns = 0;

  bool HasError() const { return max_error > 0.0; }
  bool HasDeadline() const { return deadline_ns > 0; }
  bool Unbounded() const { return !HasError() && !HasDeadline(); }
};

/// One query: the kind plus its kind-specific parameters and the requested
/// bounds.  The SQL frontend and the dedicated routes' parameter adapter
/// produce these; the planner executes them.
struct PlannedQuery {
  QueryKind kind = QueryKind::kCountWhere;
  /// TOP(k) for hot lists (0: all reportable pairs).
  std::int64_t k = 0;
  /// Hot-list confidence threshold β (/hotlist?beta=; see HotListQuery).
  double beta = HotListQuery{}.beta;
  /// FREQUENCY(value).
  Value value = 0;
  /// COUNT(*) WHERE low <= v <= high; defaults to the full domain, so a
  /// missing WHERE clause counts the whole relation.
  ValueRange range{};
  /// QUANTILE(q) / MEDIAN.
  double q = 0.5;
  QueryBound bound{};
};

/// The planner's selection for one query: which synopsis answers, over
/// which path, and what the model predicted for that choice.  `handle` is
/// null when nothing valid answers the kind.
struct PlanChoice {
  const SynopsisHandle* handle = nullptr;
  /// Answer from the epoch-frozen view (true) or the direct computation
  /// path (false).  Answers are bit-identical; only the cost differs.
  bool use_view = true;
  double predicted_error = std::numeric_limits<double>::infinity();
  /// Predicted answer latency from the handle's measured EWMA profile; an
  /// unobserved path predicts 0 (optimistically free until warmed).
  double predicted_ns = 0.0;
  /// Whether the choice satisfies the requested bounds *as predicted* —
  /// false means the planner degraded gracefully (no feasible option) and
  /// is reporting its best effort.
  bool meets_error = true;
  bool meets_deadline = true;
};

/// Scores every valid (synopsis, path) option for `kind` against the
/// handle's predicted error and measured latency profile:
///
///  - unbounded: the first valid candidate in accuracy order (§6's
///    ordering; what the dedicated routes ask for);
///  - error bound only: the *cheapest* option whose predicted error fits
///    (accuracy order breaks ties), falling back to the most accurate
///    option with meets_error=false when none fits;
///  - deadline set: the most accurate option whose predicted latency fits
///    (restricted to error-feasible options when an error bound is also
///    present), falling back to the fastest such option with
///    meets_deadline=false when the deadline cuts everything.
PlanChoice PlanQuery(const SynopsisRegistry& registry, QueryKind kind,
                     const QueryBound& bound, const QueryContext& ctx);

/// One executed planned query.  The method/synopsis tags view
/// registry-owned storage; the hotlist vector is reused across calls when
/// the response struct is reused (the zero-alloc serving discipline).
struct PlannedResponse {
  /// Synopsis that answered ("none" when nothing could).
  std::string_view method = "none";
  bool used_view = false;
  /// Estimate kinds fill `estimate`; hot lists fill `hotlist`.
  Estimate estimate;
  HotList hotlist;
  /// Error the planner reports for the answer: the measured half-width
  /// relative to the relation for interval answers, the model's predicted
  /// error otherwise; +infinity when nothing answered.
  double achieved_error = std::numeric_limits<double>::infinity();
  double predicted_error = std::numeric_limits<double>::infinity();
  double predicted_ns = 0.0;
  /// Whether the requested bounds were met (achieved error vs requested;
  /// measured response time vs deadline).  True when the bound was absent.
  bool met_error = true;
  bool met_deadline = true;
  std::int64_t response_ns = 0;
};

/// Plans and executes `query` against the registry: picks the synopsis and
/// path via PlanQuery, pins it (falling back through the accuracy order if
/// the chosen handle can no longer pin), computes the answer, records the
/// observed latency into the handle's profile and the achieved error into
/// the registry's planner stats.  Fills `*out` in place (clearing the
/// hotlist) so a warmed caller answers without allocating.
///
/// This is the one query entry point: nothing else pins a synopsis handle
/// or computes an answer.
void RunPlannedQueryInto(const SynopsisRegistry& registry,
                         const PlannedQuery& query, PlannedResponse* out);

/// RunPlannedQueryInto in the QueryResponse shape that the per-kind
/// ServingEngine and SynopsisCatalog adapters return: the answer, its
/// method tag and the response time.  The hot-list form reuses
/// `response->answer`'s capacity.
QueryResponse<Estimate> RunPlannedEstimate(const SynopsisRegistry& registry,
                                           const PlannedQuery& query);
void RunPlannedHotListInto(const SynopsisRegistry& registry,
                           const PlannedQuery& query,
                           QueryResponse<HotList>* response);

}  // namespace aqua

#endif  // AQUA_PLAN_PLANNER_H_
