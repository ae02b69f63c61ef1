#include "registry/registry.h"

#include <algorithm>

namespace aqua {

std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kHotList:
      return "hotlist";
    case QueryKind::kFrequency:
      return "frequency";
    case QueryKind::kCountWhere:
      return "count_where";
    case QueryKind::kDistinct:
      return "distinct";
    case QueryKind::kQuantile:
      return "quantile";
  }
  return "unknown";
}

Status SynopsisRegistry::ValidateModel(
    const std::string& name,
    const std::array<int, kNumQueryKinds>& accuracy_class,
    const std::array<bool, kNumQueryKinds>& has_error,
    const std::array<bool, kNumQueryKinds>& has_answerer) {
  for (int kind = 0; kind < kNumQueryKinds; ++kind) {
    const bool declared = accuracy_class[kind] != kCannotAnswer;
    if (declared && !has_answerer[kind]) {
      return Status::InvalidArgument(
          name + ": cost/error model declared for a query kind without an "
                 "answer function");
    }
    if (!declared && has_answerer[kind]) {
      return Status::InvalidArgument(
          name + ": answer function provided for a query kind without a "
                 "cost/error model entry");
    }
    if (declared && !has_error[kind]) {
      return Status::InvalidArgument(
          name + ": cost/error model entry without an error estimator (the "
                 "planner cannot score what it cannot predict)");
    }
  }
  return Status::OK();
}

void SynopsisRegistry::IndexHandle(SynopsisHandle* handle) {
  for (int kind = 0; kind < kNumQueryKinds; ++kind) {
    const int accuracy = handle->Capabilities().model[kind].accuracy_class;
    if (accuracy == kCannotAnswer) continue;
    auto& list = by_kind_[kind];
    auto it = list.begin();
    while (it != list.end() &&
           (*it)->Capabilities().model[kind].accuracy_class <= accuracy) {
      ++it;
    }
    list.insert(it, handle);
  }
}

Status SynopsisRegistry::Observe(const StreamOp& op) {
  if (op.kind == StreamOp::Kind::kInsert) {
    const Value value = op.value;
    InsertBatch(std::span<const Value>(&value, 1));
    return Status::OK();
  }
  return Delete(op.value);
}

Status SynopsisRegistry::ObserveBatch(std::span<const StreamOp> ops) {
  std::vector<Value> run;
  std::size_t i = 0;
  while (i < ops.size()) {
    if (ops[i].kind != StreamOp::Kind::kInsert) {
      AQUA_RETURN_NOT_OK(Observe(ops[i]));
      ++i;
      continue;
    }
    run.clear();
    while (i < ops.size() && ops[i].kind == StreamOp::Kind::kInsert) {
      run.push_back(ops[i].value);
      ++i;
    }
    InsertBatch(run);
  }
  return Status::OK();
}

void SynopsisRegistry::InsertBatch(std::span<const Value> values) {
  if (values.empty()) return;
  for (const auto& handle : handles_) handle->InsertBatch(values);
  const auto n = static_cast<std::int64_t>(values.size());
  inserts_.fetch_add(n, std::memory_order_relaxed);
  for (const auto& handle : handles_) handle->OnIngest(n);
}

Status SynopsisRegistry::Delete(Value value) {
  deletes_.fetch_add(1, std::memory_order_relaxed);
  Status status = Status::OK();
  for (const auto& handle : handles_) {
    const Status handle_status = handle->Delete(value);
    if (!handle_status.ok() && status.ok()) status = handle_status;
  }
  for (const auto& handle : handles_) handle->OnIngest(1);
  return status;
}

bool SynopsisRegistry::HasDeletable() const {
  for (const auto& handle : handles_) {
    if (handle->valid() &&
        handle->Capabilities().on_delete == DeleteBehavior::kApplies) {
      return true;
    }
  }
  return false;
}

std::uint64_t SynopsisRegistry::ServingEpoch() const {
  std::uint64_t epoch = merge_rounds_.load(std::memory_order_relaxed);
  for (const auto& handle : handles_) {
    epoch += handle->CacheEpoch();
    if (!handle->valid()) ++epoch;  // invalidation changes answers too
  }
  return epoch;
}

Result<std::function<Status()>> SynopsisRegistry::PrepareDeltaMerge(
    std::string_view name, const std::vector<std::uint8_t>& bytes) {
  SynopsisHandle* target = mutable_handle(name);
  if (target == nullptr) {
    return Status::NotFound("no synopsis named " + std::string(name));
  }
  return target->PrepareDeltaMerge(bytes);
}

void SynopsisRegistry::CompleteMergeRound() {
  merge_rounds_.fetch_add(1, std::memory_order_relaxed);
  // Enough reported ingest progress to trip any ops staleness bound: the
  // next SettleCaches() refreshes every handle's snapshot cache, so the
  // whole round becomes visible under one settled epoch.
  const std::int64_t force = std::max<std::int64_t>(
      options_.cache_max_stale_ops, 1);
  for (const auto& handle : handles_) handle->OnIngest(force);
}

bool SynopsisRegistry::AnyCacheStale() const {
  for (const auto& handle : handles_) {
    if (handle->CacheIsStale()) return true;
  }
  return false;
}

void SynopsisRegistry::SettleCaches() const {
  for (const auto& handle : handles_) handle->SettleCache();
}

Words SynopsisRegistry::TotalFootprint() const {
  Words total = 0;
  for (const auto& handle : handles_) total += handle->Footprint();
  return total;
}

const SynopsisHandle* SynopsisRegistry::handle(std::string_view name) const {
  for (const auto& candidate : handles_) {
    if (candidate->Name() == name) return candidate.get();
  }
  return nullptr;
}

SynopsisHandle* SynopsisRegistry::mutable_handle(std::string_view name) {
  for (const auto& candidate : handles_) {
    if (candidate->Name() == name) return candidate.get();
  }
  return nullptr;
}

RegistryStats SynopsisRegistry::GetStats() const {
  RegistryStats stats;
  GetStatsInto(&stats);
  return stats;
}

void SynopsisRegistry::GetStatsInto(RegistryStats* out) const {
  out->inserts = observed_inserts();
  out->deletes = observed_deletes();
  out->synopses.resize(handles_.size());
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    const auto& handle = handles_[i];
    SynopsisHandleStats& s = out->synopses[i];
    // assign() reuses the string's capacity, so a warmed RegistryStats
    // reports without touching the allocator.
    const std::string_view name = handle->Name();
    s.name.assign(name.data(), name.size());
    s.valid = handle->valid();
    s.sharded = handle->Capabilities().sharded;
    s.footprint = handle->Footprint();
    s.epoch = handle->CacheEpoch();
    s.cache = handle->CacheStats();
    s.has_view = handle->HasView();
    s.view_build_ns = handle->ViewBuildNs();
    s.refresh = handle->GetRefreshProfile();
  }
  for (int kind = 0; kind < kNumQueryKinds; ++kind) {
    PlannerKindStats& p = out->planner[kind];
    const QueryKind qk = static_cast<QueryKind>(kind);
    p.kind = QueryKindName(qk);
    p.synopsis = "none";
    p.available = false;
    p.latency_ewma_ns = 0.0;
    p.last_achieved_error = LastAchievedError(qk);
    for (const SynopsisHandle* candidate : by_kind_[kind]) {
      if (!candidate->valid()) continue;
      p.synopsis = candidate->Name();
      p.available = true;
      // Report the path an unbounded query would take: the frozen view
      // when the current epoch carries one, the direct path otherwise.
      const LatencyProfile profile = candidate->LatencyFor(qk);
      const bool via_view =
          candidate->ViewAnswers(qk) && profile.view_observations > 0;
      p.latency_ewma_ns = via_view ? profile.view_ns : profile.direct_ns;
      break;
    }
  }
}

}  // namespace aqua
