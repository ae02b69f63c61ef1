#ifndef AQUA_VIEW_VIEW_BUILDERS_H_
#define AQUA_VIEW_VIEW_BUILDERS_H_

#include "core/concise_sample.h"
#include "core/counting_sample.h"
#include "estimate/aggregates.h"
#include "sample/reservoir_sample.h"
#include "sketch/flajolet_martin.h"
#include "view/frozen_view.h"

namespace aqua {

/// Freeze-time view specs, one per built-in synopsis: everything a
/// FrozenView needs, up to (but not including) the sorts.  Each runs once
/// per epoch inside the snapshot refresh and captures everything the
/// answer paths need, so queries against the epoch never touch the
/// synopsis again.  The refresh hands the Spec to FrozenView's delta-patch
/// constructor together with the previous epoch's view;
/// `FrozenView(BuildConciseViewSpec(sample))` is the full build.  Coverage
/// mirrors each synopsis's declared query kinds:
///   concise      hot list, frequency, count_where, quantile
///   counting     hot list, frequency (not a uniform sample — no
///                count_where/quantile)
///   traditional  hot list, count_where, quantile
///   FM sketch    distinct only (the estimate itself is precomputed)
FrozenView::Spec BuildConciseViewSpec(const ConciseSample& sample);
FrozenView::Spec BuildCountingViewSpec(const CountingSample& sample);
FrozenView::Spec BuildTraditionalViewSpec(const ReservoirSample& sample);
FrozenView::Spec BuildDistinctSketchViewSpec(const FlajoletMartin& sketch);

/// [FM85] distinct-count estimate with the ±2σ multiplicative band
/// (σ ≈ 0.78/sqrt(#maps) in log2 scale).  The single source of truth for
/// the arithmetic: the registry's direct answer path and
/// BuildDistinctSketchViewSpec both call it, which is what makes view answers
/// bit-identical to direct answers.
Estimate FmDistinctEstimate(const FlajoletMartin& sketch);

}  // namespace aqua

#endif  // AQUA_VIEW_VIEW_BUILDERS_H_
