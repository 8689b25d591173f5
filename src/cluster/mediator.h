#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "analysis/distributed_fof.h"
#include "cache/mediator_cache.h"
#include "cluster/cost_model.h"
#include "cluster/dataset.h"
#include "cluster/node.h"
#include "cluster/node_backend.h"
#include "cluster/partitioner.h"
#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "fields/field_registry.h"
#include "membership/rebalance.h"
#include "membership/registry.h"
#include "net/protocol.h"
#include "query/query.h"

namespace turbdb {

class ReplicaGroup;

/// Cluster-level configuration (the paper's deployment: 4-8 database
/// nodes, 1-8 worker processes per node, Sec. 5.1).
struct ClusterConfig {
  int num_nodes = 4;
  int processes_per_node = 4;
  CostModelConfig cost;
  /// Host threads actually executing node work; defaults to the hardware
  /// concurrency. This affects only real wall time, never modeled time.
  int worker_threads = 0;
  /// How datasets are sharded across nodes (Morton, as in the JHTDB, or
  /// z-slabs for the partitioning ablation).
  PartitionStrategy partition_strategy = PartitionStrategy::kMorton;
  /// When non-empty, each node persists its atoms in checksummed
  /// append-only files under this directory (one file per node, dataset
  /// and field) instead of holding them in memory; reopening a cluster
  /// over the same directory recovers the data. Device *time* still
  /// comes from the cost models either way.
  std::string storage_dir;
  /// When non-empty, the database nodes are `turbdb_node` processes at
  /// these addresses (entry i = physical node i) and the mediator
  /// scatter-gathers over TCP; `num_nodes` is then the topology's group
  /// count (node count / replication factor). Empty = classic in-process
  /// deployment. The topology's `replication_factor` R fronts each shard
  /// with a ReplicaGroup of R consecutive nodes: primary-preferred reads
  /// with failover, write fan-out, and epoch-aware restart re-sync.
  ClusterTopology topology;
  /// Transport policy toward remote nodes (deadlines, retry budget).
  RemoteNodeOptions remote;
  /// Whether durable ingest fsyncs each (dataset, field) store at batch
  /// completion so acknowledged atoms survive a crash. Benches that only
  /// measure modeled time turn it off (--no-fsync).
  bool fsync_ingest = true;
  /// Byte budget shared by every IngestTimestep worker for atoms
  /// materialized but not yet shipped to their node. Workers page their
  /// slice in bounded batches against this budget instead of
  /// materializing the whole slice, so ingesting a timestep larger than
  /// RAM stays safe. 0 = unlimited (one batch per slice).
  uint64_t ingest_budget_bytes = 256u << 20;
  /// Capacity of the mediator-tier semantic result cache (see
  /// cache/mediator_cache.h): completed threshold results are kept at the
  /// cluster entry point and repeat (or subsumed) queries are answered
  /// with zero node RPCs. 0 (the default) disables the tier.
  uint64_t mediator_cache_bytes = 0;
  /// Cache-affinity replica routing: prefer the replica that most
  /// recently answered a subsuming threshold query for the same cache
  /// key (its node-local cache likely still holds the entry) over the
  /// default primary-preferred order. Off by default.
  bool cache_affinity = false;
};

/// Execution budget a transport front-end (cluster/service.h) attaches
/// to one query. `deadline` is an absolute wall-clock bound derived from
/// the client's frame budget (default-constructed = unbounded);
/// `cancel`, when non-null, is the serving layer's cancellation token
/// (flipped by a CancelQuery RPC). The mediator folds both into every
/// NodeQuery it dispatches, so a shard worker deep in an evaluate loop
/// observes the same budget the client stated.
struct CallBudget {
  std::chrono::steady_clock::time_point deadline{};
  const std::atomic<bool>* cancel = nullptr;
};

/// One physical node's row in Mediator::ClusterStatus().
struct ClusterNodeStatus {
  int node_id = 0;  ///< Physical id (topology index).
  int shard = 0;    ///< Replica group the node belongs to.
  bool primary = false;
  bool healthy = false;
  uint64_t epoch = 0;
  uint64_t failovers = 0;
  std::string address;
  // v6 elasticity/durability columns (append-only: earlier fields keep
  // their meaning and order for JSON consumers).
  uint64_t generation = 0;  ///< Membership generation the node serves at.
  uint64_t wal_pending_records = 0;  ///< WAL records not yet checkpointed.
  uint64_t wal_pending_bytes = 0;    ///< WAL payload bytes pending.
  // v7 self-healing columns (append-only).
  uint64_t scrub_passes = 0;          ///< Scrub passes completed on the node.
  uint64_t scrub_atoms_corrupt = 0;   ///< Corrupt atoms scrubs ever found.
  uint64_t scrub_atoms_repaired = 0;  ///< Atoms healed via anti-entropy.
  uint64_t atoms_quarantined = 0;     ///< Atoms quarantined right now.
};

/// The front-end Web-server of Fig. 1: mediates between clients and the
/// database nodes. Splits each query along the spatial partitioning of
/// the data, submits the parts asynchronously to the owning nodes,
/// assembles their results and accounts the end-to-end (modeled) time.
class Mediator {
 public:
  static Result<std::unique_ptr<Mediator>> Create(const ClusterConfig& config);

  /// Registers a dataset and partitions its atoms across the nodes.
  Status CreateDataset(const DatasetInfo& info);

  /// Ingests one (field, timestep) by materializing every atom through
  /// `generate` (in parallel) and storing it on its owner node.
  Status IngestTimestep(
      const std::string& dataset, const std::string& field, int32_t timestep,
      const std::function<Result<Atom>(int32_t, uint64_t)>& generate);

  /// Evaluates a threshold query (the paper's GetThreshold entry point).
  /// `budget` (optional, default unbounded) carries the caller's
  /// deadline and cancellation token; likewise for the other Get*
  /// entry points below.
  Result<ThresholdResult> GetThreshold(const ThresholdQuery& query,
                                       const QueryOptions& options = {},
                                       const CallBudget& budget = {});

  /// Consumes one chunk of a streamed threshold reply: the points of at
  /// most `chunk_points` joined results plus the running total delivered
  /// so far (including this chunk). Returns the encoded chunk size in
  /// bytes — fed back into the comm-time model — or an error, which
  /// aborts the query and cancels the not-yet-joined shards.
  using ThresholdChunkSink = std::function<Result<uint64_t>(
      std::vector<ThresholdPoint> points, uint64_t total_points)>;

  /// Bounded-memory variant of GetThreshold: each joined sub-query
  /// outcome is sliced into chunks of at most `chunk_points` points and
  /// handed to `sink` *as it arrives*, instead of being accumulated and
  /// globally sorted on the mediator. The returned result carries the
  /// summary (cache hits, modeled times, per-node stats, byte counters
  /// summed over the streamed chunks) with an *empty* point set; the
  /// consumer reassembles the points (z-order sort of the union) and
  /// gets a byte-identical set to the non-streamed path. A sink failure
  /// (client hung up) propagates out after the cancel fan-out.
  Result<ThresholdResult> GetThresholdStreaming(
      const ThresholdQuery& query, const QueryOptions& options,
      const CallBudget& budget, uint64_t chunk_points,
      const ThresholdChunkSink& sink);

  /// Consumes one batch of stitched friends-of-friends clusters from
  /// GetFof, plus the total cluster count (known once stitching
  /// finished, so every batch carries it). Returns the encoded batch
  /// size in bytes — fed into the comm-time model — or an error, which
  /// aborts the reply.
  using FofClusterSink = std::function<Result<uint64_t>(
      std::vector<DistributedFofCluster> clusters, uint64_t total_clusters)>;

  /// Distributed friends-of-friends clustering over the points a
  /// threshold query selects: fans the threshold sub-queries out to the
  /// owning shards, runs per-shard union-find as each shard's points
  /// join, stitches clusters across shard boundaries through a
  /// halo-zone relink (periodic wrap included), and streams the
  /// resulting cluster records through `sink` in batches of at most
  /// `chunk_points` member points. Cluster ids are deterministic
  /// (smallest member z-index) and the membership is byte-identical to
  /// running the in-process FriendsOfFriends over the same threshold
  /// result. Typed failures: non-positive linking length, or a linking
  /// length above the dataset's atom width (the guaranteed halo width).
  Result<DistributedFofSummary> GetFof(
      const ThresholdQuery& query, const QueryOptions& options,
      double linking_length, uint64_t min_cluster_size,
      const CallBudget& budget, uint64_t chunk_points,
      const FofClusterSink& sink);

  /// Histogram of the derived-field norm (Fig. 2).
  Result<PdfResult> GetPdf(const PdfQuery& query,
                           const CallBudget& budget = {});

  /// The k largest-norm locations.
  Result<TopKResult> GetTopK(const TopKQuery& query,
                             const CallBudget& budget = {});

  /// Mean/RMS/max of the derived-field norm.
  Result<FieldStatsResult> GetFieldStats(const FieldStatsQuery& query,
                                         const CallBudget& budget = {});

  /// Interpolates a stored field at arbitrary physical positions
  /// (Lag4/6/8), each evaluated on the node owning its grid cell — the
  /// GetVelocity-style service calls of Sec. 2.
  Result<SampleResult> GetSamples(const SampleQuery& query,
                                  const CallBudget& budget = {});

  /// Drops cached results of (dataset, raw:derived) for `timestep`
  /// (-1 = all timesteps) on every node *and* in the mediator-tier
  /// result cache; benchmark hook matching the paper's procedure of
  /// dropping cache entries before cache-miss runs. `mediator_dropped`,
  /// when non-null, receives the mediator-tier entry count removed.
  Status DropCacheEntries(const std::string& dataset,
                          const std::string& raw_field,
                          const std::string& derived_field, int32_t timestep,
                          uint64_t* mediator_dropped = nullptr);

  /// Outcome of WarmThresholdCache.
  struct CacheWarmOutcome {
    uint64_t points = 0;        ///< Points now resident for the query.
    bool already_cached = false;  ///< True when no query had to run.
  };

  /// Runs `query` solely to populate the mediator-tier cache: a lookup
  /// that already subsumes it is a no-op, otherwise the query executes
  /// (and its completion inserts the entry). Fails when the cache tier
  /// is disabled.
  Result<CacheWarmOutcome> WarmThresholdCache(const ThresholdQuery& query,
                                              const CallBudget& budget = {});

  /// Logical shard count, including shards joined at runtime. Reads the
  /// atomic counter rather than backends_.size(): Join appends into
  /// reserved capacity and publishes through this counter, so the query
  /// path never races the vector's bookkeeping.
  int num_nodes() const {
    return static_cast<int>(backend_count_.load(std::memory_order_acquire));
  }
  /// True when the nodes are remote turbdb_node processes.
  bool distributed() const { return !config_.topology.empty(); }
  /// The in-process DatabaseNode `i` — local deployments only (tests and
  /// benchmarks reach into caches/stores through this).
  DatabaseNode& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  NodeBackend& backend(int i) { return *backends_[static_cast<size_t>(i)]; }
  const ClusterConfig& config() const { return config_; }
  FieldRegistry& registry() { return registry_; }

  /// Atoms node 0 stores for (dataset, field) — works in both
  /// deployments; used to probe whether data was already ingested.
  Result<uint64_t> StoredAtomCount(const std::string& dataset,
                                   const std::string& field);

  /// Health/epoch/failover snapshot of every physical node, one row per
  /// topology entry. Empty for the in-process deployment.
  std::vector<ClusterNodeStatus> ClusterStatus() const;

  /// Whether this mediator runs the membership registry (distributed
  /// deployments). Elasticity RPCs on a non-elastic mediator fail typed.
  bool elastic() const { return membership_ != nullptr; }

  /// Current membership snapshot (default-constructed when !elastic()).
  MembershipView Membership() const;

  /// Current membership generation (0 when !elastic()).
  uint64_t generation() const;

  /// Two-phase node join (the `turbdb_node --join` handshake). Phase 1
  /// (activate=false) admits the uuid: assigns node id and a fresh
  /// single-replica shard, returns the view plus the dataset catalog the
  /// joiner self-registers from. Phase 2 (activate=true) flips it to
  /// kShard, dials it as a new replica group, and pushes the new view to
  /// the whole cluster. The joined shard owns no ranges until
  /// Rebalance() re-homes some to it — it serves immediately, with an
  /// empty slice.
  Result<net::JoinReply> Join(const net::JoinRequest& request);

  /// Decommissions `node_id`: every range its shard effectively owns is
  /// live-moved to the least-loaded remaining shard (copy, then
  /// cutover), the record flips to kDraining, and the new view is
  /// pushed. The drained node keeps its bytes (lazy drop) so in-flight
  /// halo reads keep succeeding; it can be shut down afterwards.
  Result<net::LeaveReply> Leave(int node_id);

  /// Plans and executes up to `request.max_ranges` live range moves
  /// toward `request.to_shard` (-1 = least-loaded). Each move copies via
  /// SyncRange paging with skip-existing ingest, then cuts ownership
  /// over on a generation bump pushed to every node; queries in flight
  /// across the cutover either finish under their pinned view or retry
  /// under the new one via kWrongOwner.
  Result<net::RebalanceReply> Rebalance(const net::RebalanceRequest& request);

  /// How many CancelQuery fan-outs Dispatch has issued to not-yet-joined
  /// shards (after a hard failure, a tripped point cap, or an external
  /// cancellation). Observability/test hook.
  uint64_t cancels_issued() const { return cancels_issued_.load(); }

  /// The mediator-tier result cache; never null (disabled when
  /// `mediator_cache_bytes` was 0). The serving layer attaches the
  /// server's governor ledger and reads stats through this.
  MediatorCache& result_cache() { return *result_cache_; }

  /// How many node Execute sub-queries Dispatch has submitted over this
  /// mediator's lifetime. A repeat threshold query answered by the
  /// mediator cache leaves this unchanged — the zero-node-RPC assertion
  /// hook for tests and benches.
  uint64_t node_executes() const { return node_executes_.load(); }

  /// Total affinity-preferred replica routing decisions, summed over the
  /// replica groups (always 0 in-process or with affinity off).
  uint64_t affinity_routes() const;

  /// Reads that failed over off a member answering kCorruption, and
  /// background read-repairs completed — summed over the replica groups
  /// (always 0 in-process). Surfaced through the ServerStats RPC (v7).
  uint64_t corruption_failovers() const;
  uint64_t read_repairs() const;

  Result<const DatasetInfo*> GetDataset(const std::string& name) const;

 private:
  struct DatasetState {
    DatasetInfo info;
    MortonPartitioner partitioner;
  };

  explicit Mediator(const ClusterConfig& config);

  Result<const DatasetState*> GetDatasetState(const std::string& name) const;

  /// Resolves catalog/kernel/differentiator and builds the node query.
  Result<NodeQuery> BuildNodeQuery(
      NodeQuery::Mode mode, const std::string& dataset,
      const std::string& raw_field, const std::string& derived_field,
      int32_t timestep, const Box3& box, int fd_order,
      const QueryOptions& options);

  /// Dispatches `node_query` to every node owning data in its box and
  /// merges the outcomes; fills the modeled time breakdown. Assigns the
  /// query a cluster-unique id and a cancel token: when one shard fails
  /// hard, the point cap trips, or `budget.cancel` flips, the token is
  /// set and the remaining in-flight sub-queries are cancelled instead
  /// of running to completion for a result nobody will merge.
  ///
  /// When `point_sink` is set, each outcome's points are *moved* into it
  /// as that outcome joins (the returned outcomes keep their metadata but
  /// empty point vectors), so the mediator never holds more than one
  /// outcome's points. The sink also receives the owning shard's node
  /// id — the FoF stitcher needs the attribution; plain streaming
  /// ignores it. A sink error aborts like a hard shard failure.
  Result<std::vector<NodeOutcome>> Dispatch(
      const NodeQuery& node_query, const CallBudget& budget,
      const std::function<Status(int node_id,
                                 std::vector<ThresholdPoint> points)>&
          point_sink = nullptr);

  /// One dispatch attempt under one membership snapshot. Dispatch wraps
  /// it with the kWrongOwner retry: a sub-query bounced by a node whose
  /// ownership moved re-runs the whole scatter under a fresh snapshot
  /// (only while no points have streamed to the sink yet — a partially
  /// consumed stream cannot be replayed without duplicates).
  Result<std::vector<NodeOutcome>> DispatchOnce(
      const NodeQuery& node_query, const CallBudget& budget,
      const std::function<Status(int node_id,
                                 std::vector<ThresholdPoint> points)>&
          point_sink);

  const Differentiator* GetDifferentiator(const std::string& dataset,
                                          const GridGeometry& geometry,
                                          int order);

  /// Fresh shared snapshot of the membership view; null when !elastic().
  /// Waits out a cutover in progress (see routing_mutex_).
  std::shared_ptr<const MembershipView> ViewSnapshot() const;

  /// The replica group serving `shard`, or an error naming it.
  Result<ReplicaGroup*> Group(int shard) const;

  /// Sorted codes each shard effectively owns under `view`, across every
  /// dataset (the shared Morton code space; see RebalancePlanner).
  std::vector<std::vector<uint64_t>> ComputeShardAtoms(
      const MembershipView& view) const;

  /// Copy + cutover of one planned move (caller holds
  /// membership_mutex_). Pushes the post-cutover view to every group.
  Result<RangeMover::Outcome> ExecuteMoveLocked(const RangeMove& move);

  /// Pushes the registry's current view to every replica group (caller
  /// holds membership_mutex_). Down members miss the push and resync on
  /// probe instead.
  Status PushMembershipLocked();

  ClusterConfig config_;
  FieldRegistry registry_;
  /// In-process nodes (empty in distributed mode); backends_ is the
  /// uniform view the query path uses, one entry per node either way.
  /// Capacity is reserved at Create for the base shards plus the join
  /// headroom, so Join's push_back never reallocates under a concurrent
  /// Dispatch; `backend_count_` publishes the readable prefix.
  std::vector<std::unique_ptr<DatabaseNode>> nodes_;
  std::vector<std::unique_ptr<NodeBackend>> backends_;
  std::atomic<size_t> backend_count_{0};
  std::map<std::string, std::unique_ptr<DatasetState>> datasets_;

  /// Authoritative membership (distributed mode; null in-process). Admin
  /// mutations (join/leave/rebalance) serialize on membership_mutex_.
  std::unique_ptr<MembershipRegistry> membership_;
  std::mutex membership_mutex_;
  /// Held shared by ViewSnapshot and exclusively by a cutover from the
  /// registry's generation bump until donor and recipient have installed
  /// the new view. A node evaluates under its own view, so a query routed
  /// under a generation an involved node has not installed yet would miss
  /// the moved range; one routed under an older generation is fenced by
  /// the node (kWrongOwner) and re-routed after the cutover.
  mutable std::shared_mutex routing_mutex_;

  /// Runs per-node sub-queries (the asynchronous query scheduling layer).
  std::unique_ptr<ThreadPool> scheduler_;
  /// Runs the per-process chunks inside each node.
  std::unique_ptr<ThreadPool> workers_;

  /// Source of CancelQuery ids: a counter mixed with this mediator's
  /// address, so two mediators over the same nodes cannot collide.
  std::atomic<uint64_t> query_counter_{1};
  std::atomic<uint64_t> cancels_issued_{0};
  std::atomic<uint64_t> node_executes_{0};

  /// Mediator-tier semantic result cache (capacity 0 = disabled).
  std::unique_ptr<MediatorCache> result_cache_;

  mutable std::mutex diff_mutex_;
  std::map<std::pair<std::string, int>, std::unique_ptr<Differentiator>>
      differentiators_;
  std::map<std::pair<std::string, int>,
           std::shared_ptr<const LagrangeInterpolator>>
      interpolators_;
};

}  // namespace turbdb
