#pragma once

// The traced per-layer replay. It stays outside the program: a seeded
// sample of a workload's operations is replayed through successively lower
// public entry points, one span per call:
//
//   net::Client                    (service_mix only)
//   Mediator::GetThreshold/GetThresholdStreaming/GetFof/GetPdf/GetTopK
//   SemanticCache::Lookup / MediatorCache::Lookup   (when the tier is on)
//   Mediator::GetThreshold with io_only             (when the op evaluates)
//   DerivedField::NormAt over a Slab of the same data
//   EncodePointsBinary, EncodePointsXml
//
// A layer's self time is its entry point's time minus the time of the
// entry points below it, so the self times of one operation sum to its
// top-level time.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/mediator.h"
#include "harness.h"
#include "net/client.h"

namespace perfbench {

/// One answered read, with what the layer accounting needs.
struct CallOutcome {
  Fingerprint fingerprint;
  std::vector<ThresholdPoint> points;  ///< Threshold-family ops.
  std::vector<NodeExecutionStats> node_stats;
};

/// Runs `op` on the in-process mediator.
Result<CallOutcome> MediatorCall(Mediator* mediator, const Op& op,
                                 const QueryOptions& options);
/// Runs `op` through a TCP client of a served mediator.
Result<CallOutcome> ClientCall(net::Client* client, const Op& op,
                               const QueryOptions& options);

/// Reference answer with every cache off (the correctness gate's oracle).
Result<Fingerprint> ReferenceFingerprint(Mediator* mediator, const Op& op);

/// RMS of the derived-field norm over one whole time-step.
Result<double> WholeStepRms(Mediator* mediator, const FieldChoice& field,
                            int32_t timestep, int64_t n);

struct ReplayConfig {
  Mediator* mediator = nullptr;
  const AtomBank* bank = nullptr;
  /// The workload's own query options (cache use).
  QueryOptions options;
  /// Threads the kernel replay uses: the cluster's worker count.
  int kernel_threads = 1;
  /// Top entry point for service_mix; null in-process.
  net::Client* client = nullptr;
  /// Time-step t holds the data the bank generated for step t % data_steps
  /// (later steps are ingested as copies of the generated ones).
  int32_t data_steps = 1;
};

class Replayer {
 public:
  explicit Replayer(ReplayConfig config);

  /// Replays one sampled operation through every entry point on its path.
  /// A top-level answer that differs from the reference is printed and
  /// counted in mismatches(); the replay goes on.
  Status Replay(const Op& op);

  /// Times the sample's top-level calls without spans and with spans,
  /// interleaved, `rounds` times each.
  Status MeasureOverhead(const std::vector<Op>& ops, int rounds);

  /// Single-threaded DerivedField::NormAt cost per point, per field.
  Status MeasureKernelRates(uint64_t seed);

  /// Records one IngestTimestep call of `atoms` atoms (set-up or writer),
  /// timed by the caller, as a storage-layer span.
  void RecordIngest(double start_ms, double end_ms, uint64_t atoms);

  /// Appends every per-layer metric this replay measured, as means per
  /// sampled operation, plus the self-time accounting lines.
  void AddMetrics(Report* report, double untraced_p50_ms) const;

  const Tracer& tracer() const { return tracer_; }
  /// Operations replayed, and those whose answer was wrong.
  uint64_t replayed() const { return next_op_ - 1; }
  uint64_t mismatches() const { return mismatches_; }

 private:
  struct Totals {
    int ops = 0;
    double root_ms = 0.0;
    double kernel_ms = 0.0;
    double gather_ms = 0.0;
    double node_lookup_ms = 0.0;
    double mediator_lookup_ms = 0.0;
    double binary_encode_ms = 0.0;
    double xml_encode_ms = 0.0;
    double mediator_self_ms = 0.0;
    double net_self_ms = 0.0;
    uint64_t points_evaluated = 0;
    uint64_t atoms_read_local = 0;
    uint64_t atoms_read_remote = 0;
    uint64_t bytes_read = 0;
    uint64_t gathered_points = 0;
    uint64_t records_scanned = 0;
    uint64_t points_returned = 0;
    uint64_t result_bytes_binary = 0;
    uint64_t result_bytes_xml = 0;
    int wire_ops = 0;
    int fof_ops = 0;
    double cluster_fof_ms = 0.0;
    double analysis_fof_ms = 0.0;
    double ingest_ms = 0.0;
    uint64_t ingest_atoms = 0;
    double overhead_bare_ms = 0.0;
    double overhead_traced_ms = 0.0;
    int overhead_calls = 0;  ///< Bare calls (as many were traced).
  };

  Result<std::shared_ptr<const DerivedField>> GetKernel(
      const std::string& derived);
  const Slab& WholeStepSlab(const std::string& raw, int32_t timestep);
  Result<CallOutcome> TopCall(const Op& op, const QueryOptions& options);

  ReplayConfig config_;
  Tracer tracer_;
  Totals totals_;
  std::unique_ptr<Differentiator> diff_;
  std::map<std::string, std::shared_ptr<const DerivedField>> kernels_;
  std::map<std::pair<std::string, int32_t>, Slab> slabs_;
  std::map<std::string, double> kernel_ns_per_point_;
  uint64_t next_op_ = 1;
  uint64_t mismatches_ = 0;
};

/// Counters of the measured closed loop that per-layer metrics report.
/// Zero where the workload's path does not cross the layer.
struct LoopCounters {
  uint64_t reads = 0;
  uint64_t node_executes = 0;  ///< Mediator::node_executes() delta.
  uint64_t node_lookups = 0;   ///< Node-tier SemanticCache lookups.
  uint64_t node_hits = 0;
  uint64_t mediator_hits = 0;  ///< Mediator-tier MediatorCache deltas.
  uint64_t mediator_misses = 0;
  uint64_t invalidations = 0;
  uint64_t stale_inserts = 0;
  uint64_t shed = 0;           ///< Queries the server shed.
  double ping_us = 0.0;
  double rtt_overhead_ms = 0.0;
};

/// Appends the loop-counter per-layer metrics.
void AddLoopMetrics(Report* report, const LoopCounters& counters);

/// A seeded sample of `count` operations drawn with the workload's own
/// chooser, topped up so every operation kind in the pool appears.
std::vector<Op> SampleOps(const std::vector<Op>& pool, const Chooser& choose,
                          uint64_t seed, size_t count);

}  // namespace perfbench
