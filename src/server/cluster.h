#ifndef AQUA_SERVER_CLUSTER_H_
#define AQUA_SERVER_CLUSTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "persist/delta_frame.h"
#include "persist/wal.h"
#include "registry/builtin.h"
#include "registry/registry.h"
#include "server/server.h"
#include "server/serving_engine.h"

namespace aqua {

/// Synopsis-shipping cluster mode: N ingest nodes each observe a shard of
/// the load stream, accumulate *delta* synopses locally, and periodically
/// push them — serialized with the persist codecs — to one aggregator,
/// which MergeFroms every delta into its serving registry under one
/// logical epoch per merge round (the paper's §4.2 merge property is what
/// makes the shipped state composable at all).  Each ingest node writes a
/// WAL before applying any op and checkpoints periodically, so a SIGKILLed
/// node recovers its exact synopsis state from disk instead of replaying
/// the stream.
///
/// Exactly-once delta delivery across crashes:
///   - an export marker (seq, up_to) lands in the WAL, durably, before the
///     frame leaves the node — the sequence number is claimed once and
///     never reused;
///   - the commit marker lands only after the aggregator acked the push;
///   - recovery re-derives an exported-but-uncommitted frame
///     byte-identically (delta registries are seeded deterministically
///     from the export seq, and their epochs advance only when a frame or
///     a checkpoint encodes them, so their serialized state is a pure
///     function of the op sequence) and re-pushes it;
///   - the aggregator deduplicates by (node_id, seq).

enum class ClusterRole { kSingle, kIngest, kAggregator };

/// The synopsis selection both cluster roles run: traditional + concise
/// only.  Only mergeable *and* persistable synopses can ship as deltas;
/// the counting sample is deliberately unmergeable (its threshold is
/// count-coupled) and the FM sketch has no codec, so a cluster node
/// maintaining them would hold state it can never ship.
SynopsisSelection ClusterSelection();

/// The deterministic seed of the delta round that exports under `seq`.
/// Both the live accumulation path and crash recovery derive the same
/// seed from the same seq, which is what makes a re-derived pending frame
/// byte-identical to the one originally pushed.
std::uint64_t DeltaSeed(std::uint64_t node_seed, std::uint64_t seq);

/// Builds the per-round delta registry: a one-shard registry with the
/// default staleness bounds, cluster selection.  Every mutation runs under
/// the replicator's lock, and only EncodeState (a frame or a checkpoint)
/// advances its epoch, draining the shard into it — so the encoded bytes
/// depend only on the seed and the op sequence.
using DeltaRegistryFactory =
    std::function<std::unique_ptr<SynopsisRegistry>(std::uint64_t seed)>;
DeltaRegistryFactory MakeClusterDeltaFactory(Words footprint_bound);

/// Aggregator side: applies pushed delta frames to a serving registry with
/// (node, seq) idempotency.  Thread-safe; the server's worker pool calls
/// Accept concurrently.
class DeltaAcceptor {
 public:
  explicit DeltaAcceptor(SynopsisRegistry* registry) : registry_(registry) {}

  struct AcceptOutcome {
    /// True when the frame's seq was already applied for this node — the
    /// push is acked without touching any synopsis (a crashed node
    /// re-pushing its uncommitted frame, or a duplicate retry).
    bool duplicate = false;
  };

  /// Applies one frame.  Two-phase: every blob in the frame is decoded and
  /// validated first (PrepareDeltaMerge), so a frame that cannot apply
  /// cleanly mutates nothing and stays retryable.  The seq is recorded
  /// after validation but before the merges — a retry of a frame that
  /// failed mid-merge must dedupe rather than double-apply.
  Result<AcceptOutcome> Accept(const DeltaFrame& frame);

  struct Stats {
    std::uint64_t merge_rounds = 0;
    std::int64_t ops_applied = 0;
    std::int64_t frames_accepted = 0;
    std::int64_t frames_deduped = 0;
    /// (node_id, highest applied seq), sorted by node_id.
    std::vector<std::pair<std::string, std::uint64_t>> nodes;
  };
  Stats GetStats() const;

 private:
  mutable std::mutex mutex_;
  SynopsisRegistry* registry_;
  std::map<std::string, std::uint64_t> last_seq_;
  std::int64_t ops_applied_ = 0;
  std::int64_t frames_accepted_ = 0;
  std::int64_t frames_deduped_ = 0;
};

struct IngestReplicatorOptions {
  std::string node_id = "node";
  /// Directory holding this node's WAL + checkpoint (created if missing).
  std::string data_dir;
  /// Seed of the delta-round seed chain (DeltaSeed derives per-round
  /// seeds from it; keep it fixed across restarts of the same node).
  std::uint64_t node_seed = 0x19980531ULL;
  /// Push attempts per frame per PushNow (1 = no retry).
  int push_attempts = 3;
  std::chrono::milliseconds push_backoff{50};
  /// Fault-injection hook: sleep between the aggregator's ack and the
  /// commit marker, widening the window a SIGKILL must land in for the
  /// re-push/dedupe path to be exercised.  Zero in production.
  std::chrono::milliseconds debug_commit_hold{0};
  /// The transport a frame is pushed through.  main() wires an HTTP POST
  /// to the aggregator; in-process tests inject a function so the
  /// replicator protocol is testable without sockets.
  std::function<Status(const std::vector<std::uint8_t>&)> push_transport;
};

/// Ingest side: WAL-ahead ingest into the node's serving registry plus the
/// current delta round, export/commit-marked delta shipping, periodic
/// checkpoints, and crash recovery.  All entry points are thread-safe (one
/// mutex serializes the WAL and both registries' op order — op order is
/// what recovery determinism is built on).
class IngestReplicator {
 public:
  /// `main_registry` is the node's serving registry (it outlives the
  /// replicator); the factory builds each delta round's registry.
  IngestReplicator(SynopsisRegistry* main_registry,
                   DeltaRegistryFactory delta_factory,
                   IngestReplicatorOptions options);
  ~IngestReplicator();

  IngestReplicator(const IngestReplicator&) = delete;
  IngestReplicator& operator=(const IngestReplicator&) = delete;

  /// Recovery + WAL open.  Reads the checkpoint (if any) into the main
  /// registry, replays the WAL suffix (tolerating a torn tail, which is
  /// truncated), re-derives any exported-but-uncommitted frame, and leaves
  /// the WAL open for append.  Must be called once, before ingest or
  /// serving traffic.
  Status Init();

  /// WAL-ahead ingest: every value is appended to the WAL and the WAL is
  /// flushed *before* any synopsis observes it — the durability order that
  /// makes "recovered state == pre-crash state" literal.
  Status Ingest(std::span<const Value> values);

  /// Pushes now: first retries any pending (exported, uncommitted) frame,
  /// then exports the current delta round if it covers new ops.  Returns
  /// OK with nothing to do; a failed push leaves the frame pending for the
  /// next call.
  Status PushNow();

  /// Writes a checkpoint and rotates the WAL.  Refused (FailedPrecondition)
  /// while a frame is pending — the checkpoint format records exactly one
  /// in-progress round (see NodeCheckpoint's invariants).
  Status CheckpointNow();

  /// Spawns the background pusher: PushNow every `interval`, and
  /// CheckpointNow once at least `checkpoint_every_ops` new ops have been
  /// ingested since the last checkpoint (0 disables checkpointing).
  void StartPusher(std::chrono::milliseconds interval,
                   std::int64_t checkpoint_every_ops);
  /// Stops and joins the pusher (idempotent; also run by the destructor).
  void StopPusher();

  struct Stats {
    std::int64_t op_count = 0;
    std::uint64_t next_seq = 1;
    std::int64_t exported_up_to = 0;
    bool pending = false;
    std::uint64_t pending_seq = 0;
    std::int64_t pushes_ok = 0;
    std::int64_t pushes_failed = 0;
    std::int64_t checkpoints = 0;
    /// Init() provenance: whether a checkpoint was restored, and how many
    /// op records the WAL suffix replayed.
    bool recovered_checkpoint = false;
    std::int64_t recovered_ops = 0;
  };
  Stats GetStats() const;

  const std::string& node_id() const { return options_.node_id; }

 private:
  struct PendingFrame {
    std::uint64_t seq = 0;
    std::int64_t up_to = 0;
    std::int64_t covers_ops = 0;
    std::vector<std::uint8_t> bytes;
  };

  std::string WalPath() const;
  std::string CheckpointPath() const;

  /// Serializes every persistable handle of `registry` into (name, state)
  /// pairs (the shape both delta frames and checkpoint blob lists use).
  Result<std::vector<std::pair<std::string, std::vector<std::uint8_t>>>>
  EncodeRegistryState(const SynopsisRegistry& registry) const;

  /// Builds the wire frame for the current delta round under `seq`.
  Result<std::vector<std::uint8_t>> EncodeDeltaRound(std::uint64_t seq,
                                                     std::int64_t covers);

  /// Pushes `frame.bytes` with retry/backoff, then commits: hold (fault
  /// injection), commit marker, exported_up_to.  Caller holds mutex_.
  Status PushAndCommitLocked(PendingFrame& frame);

  SynopsisRegistry* main_;
  DeltaRegistryFactory delta_factory_;
  IngestReplicatorOptions options_;

  mutable std::mutex mutex_;
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<SynopsisRegistry> delta_;
  std::optional<PendingFrame> pending_;
  std::int64_t op_count_ = 0;
  std::uint64_t next_seq_ = 1;
  std::int64_t exported_up_to_ = 0;
  std::int64_t pushes_ok_ = 0;
  std::int64_t pushes_failed_ = 0;
  std::int64_t checkpoints_ = 0;
  std::int64_t last_checkpoint_ops_ = 0;
  bool recovered_checkpoint_ = false;
  std::int64_t recovered_ops_ = 0;
  bool initialized_ = false;

  std::mutex pusher_mutex_;
  std::condition_variable pusher_cv_;
  bool pusher_stop_ = false;
  std::thread pusher_;
};

/// The cluster HTTP surface, layered over the serving routes:
///
///   POST /cluster/push            delta frame body (aggregator)
///   GET  /cluster/status          role + replication counters (live)
///   GET  /cluster/state?synopsis= serialized synopsis state (octet-stream)
///   POST /cluster/push_now        force an export/push round (ingest)
///   POST /cluster/checkpoint_now  force a checkpoint (ingest)
struct ClusterRouteConfig {
  ClusterRole role = ClusterRole::kSingle;
  /// Aggregator role only.
  DeltaAcceptor* acceptor = nullptr;
  /// Ingest role only.
  IngestReplicator* replicator = nullptr;
};

void RegisterClusterRoutes(HttpServer& server, ServingEngine& engine,
                           const ClusterRouteConfig& config);

const char* ClusterRoleName(ClusterRole role);

}  // namespace aqua

#endif  // AQUA_SERVER_CLUSTER_H_
