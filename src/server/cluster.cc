#include "server/cluster.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "common/check.h"
#include "persist/checkpoint.h"
#include "random/xoshiro256.h"
#include "server/json.h"

namespace aqua {

namespace {

/// {"error": message} with the given status code (mirrors routes.cc's
/// helper; the cluster surface keeps the same error shape).
void JsonErrorInto(int code, std::string_view message,
                   HttpResponse* response) {
  response->status_code = code;
  response->body.clear();
  JsonWriter w(&response->body);
  w.BeginObject().Key("error").String(message).EndObject();
}

}  // namespace

SynopsisSelection ClusterSelection() {
  SynopsisSelection selection;
  selection.maintain_counting = false;
  selection.maintain_distinct_sketch = false;
  return selection;
}

std::uint64_t DeltaSeed(std::uint64_t node_seed, std::uint64_t seq) {
  std::uint64_t state = node_seed + 0x9e3779b97f4a7c15ULL * seq;
  return SplitMix64Next(state);
}

DeltaRegistryFactory MakeClusterDeltaFactory(Words footprint_bound) {
  return [footprint_bound](std::uint64_t seed) {
    SynopsisRegistry::Options options;
    options.shards = 1;
    options.seed = seed;
    auto registry = std::make_unique<SynopsisRegistry>(options);
    BuiltinBounds bounds;
    bounds.single = footprint_bound;
    bounds.sharded = footprint_bound;
    AQUA_CHECK(
        RegisterBuiltinSynopses(*registry, ClusterSelection(), bounds).ok());
    return registry;
  };
}

const char* ClusterRoleName(ClusterRole role) {
  switch (role) {
    case ClusterRole::kSingle:
      return "single";
    case ClusterRole::kIngest:
      return "ingest";
    case ClusterRole::kAggregator:
      return "aggregator";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// DeltaAcceptor

Result<DeltaAcceptor::AcceptOutcome> DeltaAcceptor::Accept(
    const DeltaFrame& frame) {
  if (frame.covers_ops < 0) {
    return Status::InvalidArgument("delta frame covers a negative op count");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = last_seq_.find(frame.node_id);
  if (it != last_seq_.end() && frame.seq <= it->second) {
    ++frames_deduped_;
    AcceptOutcome outcome;
    outcome.duplicate = true;
    return outcome;
  }
  // Phase 1: decode + validate every blob before mutating anything, so a
  // frame that cannot apply stays retryable.
  std::vector<std::function<Status()>> appliers;
  appliers.reserve(frame.synopses.size());
  for (const auto& [name, bytes] : frame.synopses) {
    AQUA_ASSIGN_OR_RETURN(std::function<Status()> apply,
                          registry_->PrepareDeltaMerge(name, bytes));
    appliers.push_back(std::move(apply));
  }
  // Record the seq before phase 2: once any merge lands, a retried frame
  // must dedupe — double-applying a delta is worse than dropping the tail
  // of one (a mid-apply failure here means a config mismatch between the
  // node and the aggregator, not a transient).
  last_seq_[frame.node_id] = frame.seq;
  for (const auto& apply : appliers) {
    AQUA_RETURN_NOT_OK(apply());
  }
  registry_->NoteExternalInserts(frame.covers_ops);
  registry_->CompleteMergeRound();
  ops_applied_ += frame.covers_ops;
  ++frames_accepted_;
  return AcceptOutcome{};
}

DeltaAcceptor::Stats DeltaAcceptor::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.merge_rounds = registry_->merge_rounds();
  stats.ops_applied = ops_applied_;
  stats.frames_accepted = frames_accepted_;
  stats.frames_deduped = frames_deduped_;
  stats.nodes.assign(last_seq_.begin(), last_seq_.end());
  return stats;
}

// ---------------------------------------------------------------------------
// IngestReplicator

IngestReplicator::IngestReplicator(SynopsisRegistry* main_registry,
                                   DeltaRegistryFactory delta_factory,
                                   IngestReplicatorOptions options)
    : main_(main_registry),
      delta_factory_(std::move(delta_factory)),
      options_(std::move(options)) {}

IngestReplicator::~IngestReplicator() { StopPusher(); }

std::string IngestReplicator::WalPath() const {
  return options_.data_dir + "/wal.log";
}

std::string IngestReplicator::CheckpointPath() const {
  return options_.data_dir + "/checkpoint.bin";
}

Result<std::vector<std::pair<std::string, std::vector<std::uint8_t>>>>
IngestReplicator::EncodeRegistryState(const SynopsisRegistry& registry) const {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const SynopsisHandle* handle = registry.handle_at(i);
    if (!handle->Capabilities().persistable || !handle->valid()) continue;
    AQUA_ASSIGN_OR_RETURN(std::vector<std::uint8_t> state,
                          handle->EncodeState());
    out.emplace_back(std::string(handle->Name()), std::move(state));
  }
  return out;
}

Result<std::vector<std::uint8_t>> IngestReplicator::EncodeDeltaRound(
    std::uint64_t seq, std::int64_t covers) {
  DeltaFrame frame;
  frame.node_id = options_.node_id;
  frame.seq = seq;
  frame.covers_ops = covers;
  AQUA_ASSIGN_OR_RETURN(frame.synopses, EncodeRegistryState(*delta_));
  return EncodeDeltaFrame(frame);
}

Status IngestReplicator::Init() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (initialized_) {
    return Status::FailedPrecondition("replicator already initialized");
  }
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("ingest role requires a data dir");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.data_dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir " + options_.data_dir +
                            ": " + ec.message());
  }

  // 1. Checkpoint: the full state at a known op count, plus the delta
  //    round in progress when it was written.
  Result<NodeCheckpoint> checkpoint = ReadNodeCheckpointFile(CheckpointPath());
  if (checkpoint.ok()) {
    const NodeCheckpoint& cp = checkpoint.ValueOrDie();
    op_count_ = cp.op_count;
    next_seq_ = cp.next_seq;
    exported_up_to_ = cp.exported_up_to;
    last_checkpoint_ops_ = cp.op_count;
    for (const CheckpointBlob& blob : cp.full) {
      SynopsisHandle* handle = main_->mutable_handle(blob.name);
      if (handle == nullptr) {
        return Status::InvalidArgument("checkpoint names unknown synopsis " +
                                       blob.name);
      }
      AQUA_RETURN_NOT_OK(handle->RestoreState(blob.state));
    }
    main_->NoteExternalInserts(op_count_);
    delta_ = delta_factory_(DeltaSeed(options_.node_seed, next_seq_));
    for (const CheckpointBlob& blob : cp.delta) {
      SynopsisHandle* handle = delta_->mutable_handle(blob.name);
      if (handle == nullptr) {
        return Status::InvalidArgument("checkpoint names unknown synopsis " +
                                       blob.name);
      }
      AQUA_RETURN_NOT_OK(handle->RestoreState(blob.state));
    }
    delta_->NoteExternalInserts(op_count_ - exported_up_to_);
    recovered_checkpoint_ = true;
  } else if (checkpoint.status().code() == StatusCode::kNotFound) {
    delta_ = delta_factory_(DeltaSeed(options_.node_seed, next_seq_));
  } else {
    return checkpoint.status();
  }

  // 2. WAL suffix: replay the ops written after the checkpoint, tolerating
  //    (and truncating) a tail torn by SIGKILL mid-append.
  Result<WalContents> wal_read = ReadWalFile(WalPath(), WalReadMode::kTolerateTornTail);
  if (!wal_read.ok()) {
    if (wal_read.status().code() != StatusCode::kNotFound) {
      return wal_read.status();
    }
    wal_ = std::make_unique<WalWriter>(WalPath(), op_count_,
                                       WalWriter::OpenMode::kTruncate);
    AQUA_RETURN_NOT_OK(wal_->status());
    initialized_ = true;
    return Status::OK();
  }
  const WalContents& wal = wal_read.ValueOrDie();
  // Skip-prefix rule: a crash between the checkpoint rename and the WAL
  // rotation leaves a WAL whose base predates the checkpoint; the first
  // (op_count - base) op records are already folded into the checkpoint.
  std::int64_t skip = op_count_ - wal.base_op_count;
  if (skip < 0) {
    return Status::Internal(
        "WAL base is newer than the checkpoint — the checkpoint file was "
        "lost; cannot recover");
  }
  for (const WalRecord& record : wal.records) {
    switch (record.type) {
      case WalRecordType::kOp: {
        if (skip > 0) {
          --skip;
          break;
        }
        AQUA_RETURN_NOT_OK(main_->Observe(record.op));
        AQUA_RETURN_NOT_OK(delta_->Observe(record.op));
        ++op_count_;
        ++recovered_ops_;
        break;
      }
      case WalRecordType::kExport: {
        if (record.seq < next_seq_) break;  // committed before checkpoint
        if (pending_.has_value()) {
          return Status::Internal("WAL has overlapping export markers");
        }
        if (record.up_to != op_count_) {
          return Status::Internal(
              "WAL export marker disagrees with the replayed op count");
        }
        PendingFrame frame;
        frame.seq = record.seq;
        frame.up_to = record.up_to;
        frame.covers_ops = record.up_to - exported_up_to_;
        // Re-derive the frame the crash interrupted: the delta registry's
        // state is a pure function of (seed, op sequence), both replayed,
        // so these bytes match the ones originally pushed and the
        // aggregator's (node, seq) dedupe handles the re-push.
        AQUA_ASSIGN_OR_RETURN(frame.bytes,
                              EncodeDeltaRound(frame.seq, frame.covers_ops));
        pending_ = std::move(frame);
        next_seq_ = record.seq + 1;
        delta_ = delta_factory_(DeltaSeed(options_.node_seed, next_seq_));
        break;
      }
      case WalRecordType::kCommit: {
        if (pending_.has_value() && pending_->seq == record.seq) {
          exported_up_to_ = pending_->up_to;
          pending_.reset();
        }
        break;
      }
    }
  }
  if (!wal.clean) {
    std::filesystem::resize_file(WalPath(), wal.valid_bytes, ec);
    if (ec) {
      return Status::Internal("cannot truncate torn WAL tail: " +
                              ec.message());
    }
  }
  wal_ = std::make_unique<WalWriter>(WalPath(), wal.base_op_count,
                                     WalWriter::OpenMode::kAppend);
  AQUA_RETURN_NOT_OK(wal_->status());
  initialized_ = true;
  return Status::OK();
}

Status IngestReplicator::Ingest(std::span<const Value> values) {
  if (values.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!initialized_) {
    return Status::FailedPrecondition("replicator not initialized");
  }
  // WAL first, flushed, then the synopses — the durability order that
  // makes recovered state identical to pre-crash state: an op is either
  // on disk or was never observed.
  for (const Value value : values) {
    wal_->AppendOp(StreamOp::Insert(value));
  }
  AQUA_RETURN_NOT_OK(wal_->Flush());
  main_->InsertBatch(values);
  delta_->InsertBatch(values);
  op_count_ += static_cast<std::int64_t>(values.size());
  return Status::OK();
}

Status IngestReplicator::PushAndCommitLocked(PendingFrame& frame) {
  Status pushed = Status::FailedPrecondition("no push transport configured");
  for (int attempt = 0; attempt < std::max(options_.push_attempts, 1);
       ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(options_.push_backoff);
    pushed = options_.push_transport ? options_.push_transport(frame.bytes)
                                     : pushed;
    if (pushed.ok()) break;
    ++pushes_failed_;
  }
  if (!pushed.ok()) return pushed;
  ++pushes_ok_;
  if (options_.debug_commit_hold.count() > 0) {
    // Fault-injection window: the frame is acked but not yet committed; a
    // SIGKILL landing here forces the re-push/dedupe path on restart.
    std::this_thread::sleep_for(options_.debug_commit_hold);
  }
  wal_->AppendCommitMarker(frame.seq);
  AQUA_RETURN_NOT_OK(wal_->Flush());
  exported_up_to_ = frame.up_to;
  return Status::OK();
}

Status IngestReplicator::PushNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!initialized_) {
    return Status::FailedPrecondition("replicator not initialized");
  }
  if (pending_.has_value()) {
    AQUA_RETURN_NOT_OK(PushAndCommitLocked(*pending_));
    pending_.reset();
  }
  if (op_count_ <= exported_up_to_) return Status::OK();
  const std::uint64_t seq = next_seq_;
  const std::int64_t covers = op_count_ - exported_up_to_;
  PendingFrame frame;
  frame.seq = seq;
  frame.up_to = op_count_;
  frame.covers_ops = covers;
  AQUA_ASSIGN_OR_RETURN(frame.bytes, EncodeDeltaRound(seq, covers));
  // The export marker durably claims (seq, up_to) before the frame leaves
  // the node; recovery re-derives and re-pushes anything exported but
  // uncommitted.
  wal_->AppendExportMarker(seq, op_count_);
  AQUA_RETURN_NOT_OK(wal_->Flush());
  pending_ = std::move(frame);
  next_seq_ = seq + 1;
  delta_ = delta_factory_(DeltaSeed(options_.node_seed, next_seq_));
  AQUA_RETURN_NOT_OK(PushAndCommitLocked(*pending_));
  pending_.reset();
  return Status::OK();
}

Status IngestReplicator::CheckpointNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!initialized_) {
    return Status::FailedPrecondition("replicator not initialized");
  }
  if (pending_.has_value()) {
    return Status::FailedPrecondition(
        "cannot checkpoint with an uncommitted export pending");
  }
  NodeCheckpoint cp;
  cp.op_count = op_count_;
  cp.next_seq = next_seq_;
  cp.exported_up_to = exported_up_to_;
  AQUA_ASSIGN_OR_RETURN(auto full, EncodeRegistryState(*main_));
  for (auto& [name, state] : full) {
    cp.full.push_back(CheckpointBlob{std::move(name), std::move(state)});
  }
  AQUA_ASSIGN_OR_RETURN(auto delta, EncodeRegistryState(*delta_));
  for (auto& [name, state] : delta) {
    cp.delta.push_back(CheckpointBlob{std::move(name), std::move(state)});
  }
  AQUA_RETURN_NOT_OK(WriteNodeCheckpointFile(cp, CheckpointPath()));
  // Rotate the WAL under the new base.  A crash before this line leaves a
  // WAL older than the checkpoint — the skip-prefix rule in Init() covers
  // exactly that window.
  wal_ = std::make_unique<WalWriter>(WalPath(), op_count_,
                                     WalWriter::OpenMode::kTruncate);
  AQUA_RETURN_NOT_OK(wal_->status());
  ++checkpoints_;
  last_checkpoint_ops_ = op_count_;
  return Status::OK();
}

void IngestReplicator::StartPusher(std::chrono::milliseconds interval,
                                   std::int64_t checkpoint_every_ops) {
  StopPusher();
  {
    std::lock_guard<std::mutex> lock(pusher_mutex_);
    pusher_stop_ = false;
  }
  pusher_ = std::thread([this, interval, checkpoint_every_ops]() {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(pusher_mutex_);
        pusher_cv_.wait_for(lock, interval, [this] { return pusher_stop_; });
        if (pusher_stop_) return;
      }
      (void)PushNow();
      if (checkpoint_every_ops > 0) {
        bool due = false;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          due = !pending_.has_value() &&
                op_count_ - last_checkpoint_ops_ >= checkpoint_every_ops;
        }
        if (due) (void)CheckpointNow();
      }
    }
  });
}

void IngestReplicator::StopPusher() {
  {
    std::lock_guard<std::mutex> lock(pusher_mutex_);
    pusher_stop_ = true;
  }
  pusher_cv_.notify_all();
  if (pusher_.joinable()) pusher_.join();
}

IngestReplicator::Stats IngestReplicator::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.op_count = op_count_;
  stats.next_seq = next_seq_;
  stats.exported_up_to = exported_up_to_;
  stats.pending = pending_.has_value();
  stats.pending_seq = pending_.has_value() ? pending_->seq : 0;
  stats.pushes_ok = pushes_ok_;
  stats.pushes_failed = pushes_failed_;
  stats.checkpoints = checkpoints_;
  stats.recovered_checkpoint = recovered_checkpoint_;
  stats.recovered_ops = recovered_ops_;
  return stats;
}

// ---------------------------------------------------------------------------
// Routes

void RegisterClusterRoutes(HttpServer& server, ServingEngine& engine,
                           const ClusterRouteConfig& config) {
  if (config.acceptor != nullptr) {
    // POST → worker dispatch under kAuto: merges run off the reactors.
    server.Route(
        "POST", "/cluster/push",
        [acceptor = config.acceptor](const HttpRequest& request,
                                     HttpResponse* response) {
          Result<DeltaFrame> frame = DecodeDeltaFrame(
              reinterpret_cast<const std::uint8_t*>(request.body.data()),
              request.body.size());
          if (!frame.ok()) {
            return JsonErrorInto(400, frame.status().message(), response);
          }
          Result<DeltaAcceptor::AcceptOutcome> outcome =
              acceptor->Accept(frame.ValueOrDie());
          if (!outcome.ok()) {
            const int code =
                outcome.status().code() == StatusCode::kNotFound ? 404 : 409;
            return JsonErrorInto(code, outcome.status().message(), response);
          }
          JsonWriter w(&response->body);
          w.BeginObject();
          w.Key("accepted").Bool(true);
          w.Key("duplicate").Bool(outcome.ValueOrDie().duplicate);
          w.Key("node").String(frame.ValueOrDie().node_id);
          w.Key("seq").UInt(frame.ValueOrDie().seq);
          w.EndObject();
        });
  }

  if (config.replicator != nullptr) {
    server.Route("POST", "/cluster/push_now",
                 [replicator = config.replicator](const HttpRequest&,
                                                  HttpResponse* response) {
                   const Status status = replicator->PushNow();
                   if (!status.ok()) {
                     return JsonErrorInto(409, status.message(), response);
                   }
                   JsonWriter w(&response->body);
                   w.BeginObject().Key("pushed").Bool(true).EndObject();
                 });
    server.Route("POST", "/cluster/checkpoint_now",
                 [replicator = config.replicator](const HttpRequest&,
                                                  HttpResponse* response) {
                   const Status status = replicator->CheckpointNow();
                   if (!status.ok()) {
                     return JsonErrorInto(409, status.message(), response);
                   }
                   JsonWriter w(&response->body);
                   w.BeginObject().Key("checkpointed").Bool(true).EndObject();
                 });
  }

  // Live replication counters; never cached.
  server.Route(
      "GET", "/cluster/status",
      [role = config.role, acceptor = config.acceptor,
       replicator = config.replicator](const HttpRequest&,
                                       HttpResponse* response) {
        JsonWriter w(&response->body);
        w.BeginObject();
        w.Key("role").String(ClusterRoleName(role));
        if (acceptor != nullptr) {
          const DeltaAcceptor::Stats stats = acceptor->GetStats();
          w.Key("merge_rounds").UInt(stats.merge_rounds);
          w.Key("ops_applied").Int(stats.ops_applied);
          w.Key("frames_accepted").Int(stats.frames_accepted);
          w.Key("frames_deduped").Int(stats.frames_deduped);
          w.Key("nodes").BeginArray();
          for (const auto& [node, seq] : stats.nodes) {
            w.BeginObject();
            w.Key("node").String(node);
            w.Key("last_seq").UInt(seq);
            w.EndObject();
          }
          w.EndArray();
        }
        if (replicator != nullptr) {
          const IngestReplicator::Stats stats = replicator->GetStats();
          w.Key("node").String(replicator->node_id());
          w.Key("op_count").Int(stats.op_count);
          w.Key("next_seq").UInt(stats.next_seq);
          w.Key("exported_up_to").Int(stats.exported_up_to);
          w.Key("pending").Bool(stats.pending);
          w.Key("pushes_ok").Int(stats.pushes_ok);
          w.Key("pushes_failed").Int(stats.pushes_failed);
          w.Key("checkpoints").Int(stats.checkpoints);
          w.Key("recovered_checkpoint").Bool(stats.recovered_checkpoint);
          w.Key("recovered_ops").Int(stats.recovered_ops);
        }
        w.EndObject();
      });

  // Serialized synopsis state, for cross-process state comparison (the
  // fault harness byte-compares a recovered node against an oracle).
  // Worker-dispatched: EncodeState snapshots under shard locks.
  RouteOptions on_worker;
  on_worker.dispatch = RouteOptions::Dispatch::kWorker;
  server.Route(
      "GET", "/cluster/state",
      [&engine](const HttpRequest& request, HttpResponse* response) {
        const auto name = request.QueryParam("synopsis");
        if (!name.has_value() || name->empty()) {
          return JsonErrorInto(400, "missing ?synopsis=", response);
        }
        const SynopsisHandle* handle = engine.registry().handle(*name);
        if (handle == nullptr) {
          return JsonErrorInto(404, "no such synopsis", response);
        }
        Result<std::vector<std::uint8_t>> state = handle->EncodeState();
        if (!state.ok()) {
          return JsonErrorInto(409, state.status().message(), response);
        }
        response->content_type = "application/octet-stream";
        response->body.assign(
            reinterpret_cast<const char*>(state.ValueOrDie().data()),
            state.ValueOrDie().size());
      },
      on_worker);
}

}  // namespace aqua
