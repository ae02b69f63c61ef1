#ifndef AQUA_REGISTRY_ANSWER_SOURCE_H_
#define AQUA_REGISTRY_ANSWER_SOURCE_H_

#include <cstddef>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>

#include "estimate/aggregates.h"
#include "hotlist/hot_list.h"
#include "sample/capabilities.h"

namespace aqua {

/// A pinned, read-only answer computation surface over one synopsis.
///
/// SynopsisHandle::PinInto() constructs one of these over the handle's
/// epoch-cached snapshot and keeps that epoch alive for the duration of
/// the computation.  The planner (plan/planner.h) is
/// the only caller: it pins the handle it chose for a kind the handle
/// declared, so every answer method here is always a real answer.
class AnswerSource {
 public:
  virtual ~AnswerSource() = default;

  /// The method tag reported with the answer ("counting-sample", ...).
  virtual std::string_view Method() const = 0;

  /// True when this source answers `kind` from an epoch-frozen view (the
  /// fast path).  The registry's latency profiles split on this.
  virtual bool AnswersFromView(QueryKind kind) const = 0;

  /// Fills `*out` (cleared first) so a caller reusing a warmed vector
  /// answers from a frozen view without allocating.
  virtual void HotListAnswerInto(const HotListQuery& query,
                                 const QueryContext& ctx,
                                 HotList* out) const = 0;
  virtual Estimate FrequencyAnswer(Value value,
                                   const QueryContext& ctx) const = 0;
  /// COUNT(*) WHERE low <= v <= high; O(log m) from a value-ordered view.
  virtual Estimate CountWhereRangeAnswer(const ValueRange& range,
                                         double confidence,
                                         const QueryContext& ctx) const = 0;
  virtual Estimate DistinctAnswer(const QueryContext& ctx) const = 0;
  virtual Estimate QuantileAnswer(double q, double confidence,
                                  const QueryContext& ctx) const = 0;
};

/// Caller-provided inline storage for one pinned AnswerSource.
///
/// PinInto() placement-constructs the source into this fixed buffer instead
/// of heap-allocating a control block plus the source object per query, so
/// a caller that keeps one of these as scratch pins and answers with zero
/// allocator traffic.  Non-copyable; the pinned source lives until the
/// next Emplace()/Clear() or the holder's destruction, and must not
/// outlive the holder.
class PinnedAnswerSource {
 public:
  /// Generous upper bound on any concrete source: a vtable pointer, two
  /// shared_ptr pins (descriptor + epoch state) and a raw view pointer —
  /// 48 bytes today; 64 keeps the buffer cache-line-sized with slack.
  static constexpr std::size_t kStorageBytes = 64;

  PinnedAnswerSource() = default;
  ~PinnedAnswerSource() { Clear(); }

  PinnedAnswerSource(const PinnedAnswerSource&) = delete;
  PinnedAnswerSource& operator=(const PinnedAnswerSource&) = delete;

  /// Destroys any current occupant and constructs a T in place, returning
  /// the pinned source.  T must derive from AnswerSource (its virtual
  /// destructor is how Clear() tears the occupant down).
  template <typename T, typename... Args>
  const T* Emplace(Args&&... args) {
    static_assert(std::is_base_of_v<AnswerSource, T>,
                  "PinnedAnswerSource holds AnswerSource implementations");
    static_assert(sizeof(T) <= kStorageBytes,
                  "AnswerSource implementation outgrew the inline buffer; "
                  "raise kStorageBytes");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    Clear();
    T* source = ::new (static_cast<void*>(storage_)) T(
        std::forward<Args>(args)...);
    active_ = source;
    return source;
  }

  void Clear() {
    if (active_ != nullptr) {
      active_->~AnswerSource();
      active_ = nullptr;
    }
  }

  /// The current occupant; null when empty.
  const AnswerSource* get() const { return active_; }

 private:
  alignas(std::max_align_t) unsigned char storage_[kStorageBytes];
  AnswerSource* active_ = nullptr;
};

}  // namespace aqua

#endif  // AQUA_REGISTRY_ANSWER_SOURCE_H_
