#include "plan/planner.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

namespace aqua {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One scored (synopsis, path) option.
struct PlanOption {
  const SynopsisHandle* handle = nullptr;
  bool use_view = false;
  double predicted_error = 0.0;
  double predicted_ns = 0.0;
};

/// More handles than any registry registers per kind; options are
/// collected into fixed storage so planning never allocates.
constexpr std::size_t kMaxPlannedHandles = 16;

/// Computes the answer for `query` from a pinned source into `out`.
void ComputeInto(const AnswerSource& source, const PlannedQuery& query,
                 const QueryContext& ctx, PlannedResponse* out) {
  switch (query.kind) {
    case QueryKind::kHotList: {
      HotListQuery hot_query;
      hot_query.k = query.k;
      hot_query.beta = query.beta;
      source.HotListAnswerInto(hot_query, ctx, &out->hotlist);
      return;
    }
    case QueryKind::kFrequency:
      out->estimate = source.FrequencyAnswer(query.value, ctx);
      return;
    case QueryKind::kCountWhere:
      out->estimate = source.CountWhereRangeAnswer(
          query.range, query.bound.confidence, ctx);
      return;
    case QueryKind::kDistinct:
      out->estimate = source.DistinctAnswer(ctx);
      return;
    case QueryKind::kQuantile:
      out->estimate =
          source.QuantileAnswer(query.q, query.bound.confidence, ctx);
      return;
  }
}

PlanChoice ChoiceFrom(const PlanOption& option, bool meets_error,
                      bool meets_deadline) {
  PlanChoice choice;
  choice.handle = option.handle;
  choice.use_view = option.use_view;
  choice.predicted_error = option.predicted_error;
  choice.predicted_ns = option.predicted_ns;
  choice.meets_error = meets_error;
  choice.meets_deadline = meets_deadline;
  return choice;
}

}  // namespace

PlanChoice PlanQuery(const SynopsisRegistry& registry, QueryKind kind,
                     const QueryBound& bound, const QueryContext& ctx) {
  PlanChoice choice;
  const auto handles = registry.HandlesFor(kind);

  if (bound.Unbounded()) {
    // No bounds: the first valid candidate in accuracy order, view allowed
    // — the §6 ordering the dedicated routes serve.
    for (const SynopsisHandle* handle : handles) {
      if (!handle->valid()) continue;
      choice.handle = handle;
      choice.use_view = true;
      choice.predicted_error = handle->PredictedError(kind, ctx,
                                                      bound.confidence);
      const LatencyProfile profile = handle->LatencyFor(kind);
      choice.predicted_ns =
          (handle->ViewAnswers(kind) && profile.view_observations > 0)
              ? profile.view_ns
              : profile.direct_ns;
      return choice;
    }
    return choice;  // nothing answers; handle stays null
  }

  // Score every (handle, path) option.  The view option precedes the
  // direct option of the same handle, so "first wins" tie-breaks prefer
  // the typically-cheaper path; handle order is the accuracy order.
  std::array<PlanOption, 2 * kMaxPlannedHandles> options;
  std::size_t count = 0;
  std::size_t considered = 0;
  for (const SynopsisHandle* handle : handles) {
    if (!handle->valid()) continue;
    if (++considered > kMaxPlannedHandles) break;
    const double error = handle->PredictedError(kind, ctx, bound.confidence);
    const LatencyProfile profile = handle->LatencyFor(kind);
    if (handle->ViewAnswers(kind)) {
      options[count++] = {handle, true, error, profile.view_ns};
    }
    options[count++] = {handle, false, error, profile.direct_ns};
  }
  if (count == 0) return choice;

  const auto error_ok = [&bound](const PlanOption& option) {
    return !bound.HasError() || option.predicted_error <= bound.max_error;
  };
  const auto deadline_ok = [&bound](const PlanOption& option) {
    return !bound.HasDeadline() ||
           option.predicted_ns <=
               static_cast<double>(bound.deadline_ns);
  };

  bool meets_error = true;
  bool any_error_ok = false;
  for (std::size_t i = 0; i < count; ++i) {
    any_error_ok = any_error_ok || error_ok(options[i]);
  }
  if (!any_error_ok) {
    // No option's predicted error fits: degrade to the most accurate
    // option (min predicted error, accuracy order breaks ties) and say so.
    meets_error = false;
  }
  const auto in_pool = [&](const PlanOption& option) {
    return !any_error_ok || error_ok(option);
  };

  if (!any_error_ok && !bound.HasDeadline()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < count; ++i) {
      if (options[i].predicted_error < options[best].predicted_error) {
        best = i;
      }
    }
    return ChoiceFrom(options[best], false, true);
  }

  if (!bound.HasDeadline()) {
    // Error bound only: the cheapest option that fits the bound.
    std::size_t best = count;
    for (std::size_t i = 0; i < count; ++i) {
      if (!error_ok(options[i])) continue;
      if (best == count ||
          options[i].predicted_ns < options[best].predicted_ns) {
        best = i;
      }
    }
    return ChoiceFrom(options[best], true, true);
  }

  // Deadline set: the most accurate pool option whose predicted latency
  // fits.  Options are in accuracy order, so the first feasible handle is
  // the most accurate; among its paths, take the faster feasible one.
  std::size_t best = count;
  for (std::size_t i = 0; i < count; ++i) {
    if (!in_pool(options[i]) || !deadline_ok(options[i])) continue;
    if (best == count) {
      best = i;
    } else if (options[i].handle == options[best].handle &&
               options[i].predicted_ns < options[best].predicted_ns) {
      best = i;  // the same handle's other (faster) path
    }
    if (best != count && options[i].handle != options[best].handle) break;
  }
  if (best != count) {
    return ChoiceFrom(options[best], meets_error, true);
  }
  // The deadline cuts everything: fastest pool option, flagged.
  for (std::size_t i = 0; i < count; ++i) {
    if (!in_pool(options[i])) continue;
    if (best == count ||
        options[i].predicted_ns < options[best].predicted_ns) {
      best = i;
    }
  }
  return ChoiceFrom(options[best], meets_error, false);
}

void RunPlannedQueryInto(const SynopsisRegistry& registry,
                         const PlannedQuery& query, PlannedResponse* out) {
  const std::int64_t start = NowNs();
  out->method = "none";
  out->used_view = false;
  out->estimate = {};
  out->hotlist.clear();
  out->achieved_error = std::numeric_limits<double>::infinity();

  const QueryContext ctx{registry.observed_inserts()};
  const PlanChoice plan = PlanQuery(registry, query.kind, query.bound, ctx);
  out->predicted_error = plan.predicted_error;
  out->predicted_ns = plan.predicted_ns;

  PinnedAnswerSource pinned;
  const AnswerSource* source = nullptr;
  const SynopsisHandle* served = nullptr;
  if (plan.handle != nullptr) {
    source = plan.handle->PinInto(pinned, plan.use_view);
    if (source != nullptr) served = plan.handle;
  }
  if (source == nullptr) {
    // The chosen handle lost its state between planning and pinning (a
    // racing invalidation): fall back through the accuracy order to the
    // first handle that still pins.
    for (const SynopsisHandle* candidate : registry.HandlesFor(query.kind)) {
      source = candidate->PinInto(pinned);
      if (source != nullptr) {
        served = candidate;
        break;
      }
    }
  }
  if (source == nullptr) {
    out->met_error = !query.bound.HasError();
    out->met_deadline = !query.bound.HasDeadline();
    out->response_ns = NowNs() - start;
    return;
  }

  const std::int64_t compute_start = NowNs();
  ComputeInto(*source, query, ctx, out);
  const std::int64_t compute_ns = NowNs() - compute_start;
  const bool via_view = source->AnswersFromView(query.kind);
  served->RecordLatency(query.kind, via_view, compute_ns);
  out->method = source->Method();
  out->used_view = via_view;

  // The achieved bound reported with the answer: interval answers measure
  // it directly (half-width relative to the relation size — the paper's §6
  // error metric); the rest report the model's prediction over the state
  // that answered.
  switch (query.kind) {
    case QueryKind::kCountWhere:
    case QueryKind::kFrequency: {
      const double n =
          std::max<double>(1.0, static_cast<double>(ctx.observed_inserts));
      out->achieved_error = out->estimate.HalfWidth() / n;
      break;
    }
    default:
      out->achieved_error =
          served->PredictedError(query.kind, ctx, query.bound.confidence);
      break;
  }
  if (std::isfinite(out->achieved_error)) {
    registry.NoteAchievedError(query.kind, out->achieved_error);
  }
  out->response_ns = NowNs() - start;
  out->met_error = !query.bound.HasError() ||
                   (std::isfinite(out->achieved_error) &&
                    out->achieved_error <= query.bound.max_error);
  out->met_deadline = !query.bound.HasDeadline() ||
                      out->response_ns <= query.bound.deadline_ns;
}

QueryResponse<Estimate> RunPlannedEstimate(const SynopsisRegistry& registry,
                                           const PlannedQuery& query) {
  PlannedResponse planned;
  RunPlannedQueryInto(registry, query, &planned);
  return {planned.estimate, planned.method, planned.response_ns};
}

void RunPlannedHotListInto(const SynopsisRegistry& registry,
                           const PlannedQuery& query,
                           QueryResponse<HotList>* response) {
  PlannedResponse planned;
  planned.hotlist.swap(response->answer);
  RunPlannedQueryInto(registry, query, &planned);
  response->answer.swap(planned.hotlist);
  response->method = planned.method;
  response->response_ns = planned.response_ns;
}

}  // namespace aqua
