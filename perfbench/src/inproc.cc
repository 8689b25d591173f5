// cold_sweep and hot_explore: the paper's no-cache and cache-hit threshold
// paths on an in-process cluster of 4 nodes x 4 processes at 128^3.
//
// cold_sweep: caches off, one closed-loop client, whole-time-step
// threshold / streamed threshold / friends-of-friends reads cycling over
// vorticity, q_criterion and current at seeded thresholds of 4-8 RMS. The
// fields kernel carries most of the wall time and results stay small, so a
// kernel or gather change shows here and a cache, codec or transport
// change does not.
//
// hot_explore: node-tier SemanticCache on, mediator cache off. Set-up
// warms each field's whole step at 2 RMS; then one closed-loop client per
// hardware thread issues seeded sub-box reads at thresholds of 2-4 RMS
// (subsumed by the warm entries) mixed with whole-step repeats. The kernel
// is idle; cache lookup and filtering, lock contention and reply sizing
// carry the load, so this workload predicts no change for kernel work.

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "core/turbdb.h"
#include "replay.h"

namespace perfbench {

namespace {

constexpr int64_t kGridN = 128;
constexpr int kNodes = 4;
constexpr int kProcessesPerNode = 4;
/// Timed set-ups per run, all made after the measured loop; setup_s is
/// their median.
constexpr int kSetups = 9;
/// hot_explore: warm threshold in RMS, and the share of whole-step repeats
/// (1/4 puts p50 inside the sub-box mode and p90 inside the whole-step
/// mode, away from the boundary between the two).
constexpr double kWarmRms = 2.0;
constexpr double kWholeStepShare = 0.25;
constexpr int kWholeStepOps = 12;
constexpr int kSubBoxOps = 120;
/// Operations the traced replay samples.
constexpr size_t kReplaySample = 12;

struct IngestSpan {
  double start_ms;
  double end_ms;
  uint64_t atoms;
};

struct System {
  std::unique_ptr<Mediator> mediator;
  double setup_s = 0.0;
  /// The set-up's IngestTimestep calls; the timed set-ups' calls give
  /// ingest_atoms_per_s.
  std::vector<IngestSpan> ingests;
};

/// Warms each field's whole step at its threshold (hot_explore).
Status Warm(Mediator* mediator, const std::vector<double>& thresholds) {
  for (size_t f = 0; f < thresholds.size(); ++f) {
    ThresholdQuery warm;
    warm.dataset = kDataset;
    warm.raw_field = kFields[f].raw;
    warm.derived_field = kFields[f].derived;
    warm.box = Box3::WholeGrid(kGridN, kGridN, kGridN);
    warm.threshold = thresholds[f];
    warm.fd_order = kFdOrder;
    TURBDB_RETURN_NOT_OK(mediator->GetThreshold(warm).status());
  }
  return Status::OK();
}

/// Creates the cluster, ingests velocity and magnetic field of step 0 and
/// warms the caches at `warm_thresholds` (empty: no warm-up). This is what
/// setup_s times.
Result<System> SetUp(const AtomBank& bank, bool node_cache,
                     const std::vector<double>& warm_thresholds) {
  const double start = NowMs();
  ClusterConfig config;
  config.num_nodes = kNodes;
  config.processes_per_node = kProcessesPerNode;
  if (!node_cache) config.cost.cache_capacity_bytes = 0;
  System system;
  TURBDB_ASSIGN_OR_RETURN(system.mediator, Mediator::Create(config));
  TURBDB_RETURN_NOT_OK(
      system.mediator->CreateDataset(
          MakeMhdDataset(kDataset, kGridN, 1)));
  for (const char* field : {"velocity", "magnetic"}) {
    const double t0 = NowMs();
    TURBDB_RETURN_NOT_OK(system.mediator->IngestTimestep(
        kDataset, field, 0, bank.Source(field, 0)));
    system.ingests.push_back({t0, NowMs(), bank.atoms_per_field()});
  }
  TURBDB_RETURN_NOT_OK(Warm(system.mediator.get(), warm_thresholds));
  system.setup_s = (NowMs() - start) / 1000.0;
  return system;
}

/// The i-th of kStrata stratified draws from [lo, hi): stratum i % kStrata,
/// jittered by the seed. Every seed then covers the band evenly, so the
/// latency distribution of a pool does not depend on where a seed's draws
/// happened to cluster.
double Stratified(SplitMix64* rng, int i, double lo, double hi) {
  constexpr int kStrata = 16;
  const double slot = (i % kStrata + rng->NextDouble()) / kStrata;
  return lo + (hi - lo) * slot;
}

Op MakeOp(OpKind kind, const FieldChoice& field, const Box3& box,
          double threshold) {
  Op op;
  op.kind = kind;
  op.raw_field = field.raw;
  op.derived_field = field.derived;
  op.box = box;
  op.threshold = threshold;
  return op;
}

int RunInproc(const Args& args, bool hot) {
  const double run_start = NowMs();
  AtomBank bank(kGridN, args.data_seed);
  for (const char* field : {"velocity", "magnetic"}) {
    Status s = bank.Generate(field, 0);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: generate: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const double generated_s = (NowMs() - run_start) / 1000.0;

  // This set-up builds the measured cluster. The timed set-ups all run
  // after the measurement, in the same state of the process, so their
  // freed memory does not sit in the heap under the measured loop's peak
  // RSS. The RMS values and the pool's reference answers come from the
  // measured cluster with every cache off, before hot_explore's warm-up.
  auto built = SetUp(bank, hot, {});
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: set-up: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  System system = std::move(built).value();
  Mediator* mediator = system.mediator.get();
  std::vector<Op> pool;
  std::vector<double> rms(3, 0.0);
  {
    for (int f = 0; f < 3; ++f) {
      auto r = WholeStepRms(mediator, kFields[f], 0, kGridN);
      if (!r.ok()) {
        std::fprintf(stderr, "perfbench: rms: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      rms[static_cast<size_t>(f)] = *r;
    }
    SplitMix64 rng(MixSeed(args.seed, hot ? 0x407 : 0xc01d));
    const Box3 whole = Box3::WholeGrid(kGridN, kGridN, kGridN);
    if (!hot) {
      // Four rounds over the three fields: threshold, streamed,
      // threshold, friends-of-friends.
      const OpKind rounds[4] = {OpKind::kThreshold, OpKind::kStreamed,
                                OpKind::kThreshold, OpKind::kFof};
      for (int i = 0; i < 12; ++i) {
        const int f = i % 3;
        pool.push_back(MakeOp(rounds[i / 3], kFields[f], whole,
                              rms[static_cast<size_t>(f)] *
                                  rng.NextDouble(4.0, 8.0)));
      }
    } else {
      // Whole-step threshold repeats first (four per field), then many
      // 64^3 sub-box reads: half threshold, a quarter streamed and a
      // quarter friends-of-friends. Boxes this large make a hit's work
      // (filtering, reply sizing) outweigh thread hand-offs, whose cost
      // jitters with the host. The box layout is the same for every seed
      // (a scientist revisiting known regions) and the seed draws the
      // thresholds, so the sub-box latency distribution, and p50 with it,
      // does not depend on which regions a seed happened to pick. FoF
      // thresholds sit in a narrow band because clustering cost follows
      // the point count; thresholds are stratified over their band.
      for (int i = 0; i < kWholeStepOps; ++i) {
        const int f = i % 3;
        pool.push_back(MakeOp(OpKind::kThreshold, kFields[f], whole,
                              rms[static_cast<size_t>(f)] * kWarmRms *
                                  rng.NextDouble(1.0, 1.05)));
      }
      const OpKind kinds[4] = {OpKind::kThreshold, OpKind::kThreshold,
                               OpKind::kStreamed, OpKind::kFof};
      SplitMix64 layout(0x6b0c5);
      for (int j = 0; j < kSubBoxOps; ++j) {
        const int f = j % 3;
        const OpKind kind = kinds[(j / 3) % 4];
        const int64_t edge = 64;
        int64_t lo[3];
        for (int d = 0; d < 3; ++d) {
          lo[d] = static_cast<int64_t>(layout.NextBounded(kGridN - edge + 1));
        }
        const double rms_multiple = kind == OpKind::kFof
                                        ? Stratified(&rng, j, 2.5, 3.0)
                                        : Stratified(&rng, j, kWarmRms, 4.0);
        pool.push_back(MakeOp(kind, kFields[f],
                              Box3(lo[0], lo[1], lo[2], lo[0] + edge,
                                   lo[1] + edge, lo[2] + edge),
                              rms[static_cast<size_t>(f)] * rms_multiple));
      }
    }
    for (Op& op : pool) {
      auto expected = ReferenceFingerprint(mediator, op);
      if (!expected.ok()) {
        std::fprintf(stderr, "perfbench: reference %s: %s\n",
                     op.Describe().c_str(),
                     expected.status().ToString().c_str());
        return 1;
      }
      op.expected = *expected;
    }
  }
  const size_t whole_ops = hot ? kWholeStepOps : pool.size();
  Chooser choose = [&pool, hot, whole_ops](int, uint64_t sequence,
                                           SplitMix64* rng) -> size_t {
    if (!hot) return static_cast<size_t>(sequence % pool.size());
    if (rng->NextDouble() < kWholeStepShare) {
      return static_cast<size_t>(rng->NextBounded(whole_ops));
    }
    return whole_ops +
           static_cast<size_t>(rng->NextBounded(pool.size() - whole_ops));
  };

  std::vector<double> warm_thresholds;
  if (hot) {
    for (double r : rms) warm_thresholds.push_back(r * kWarmRms);
  }
  Status warmed = Warm(mediator, warm_thresholds);
  if (!warmed.ok()) {
    std::fprintf(stderr, "perfbench: warm-up: %s\n",
                 warmed.ToString().c_str());
    return 1;
  }

  QueryOptions options;
  options.use_cache = hot;
  const int clients = hot ? HardwareThreads() : 1;
  std::atomic<uint64_t> node_lookups{0};
  std::atomic<uint64_t> node_hits{0};
  Executor execute = [&](int, const Op& op) -> Result<Fingerprint> {
    TURBDB_ASSIGN_OR_RETURN(CallOutcome out,
                            MediatorCall(mediator, op, options));
    if (hot) {
      node_lookups += out.node_stats.size();
      for (const NodeExecutionStats& s : out.node_stats) {
        if (s.cache_hit) ++node_hits;
      }
    }
    return out.fingerprint;
  };

  ResetPeakRss(::getpid());
  const double start_rss_mb = RssMb(::getpid());
  const uint64_t executes_before = mediator->node_executes();
  LoopResult loop = RunClosedLoop(clients, args.seconds, args.seed, pool,
                                  choose, execute);
  const double peak_rss_mb = PeakRssMb(::getpid());
  const uint64_t loop_executes = mediator->node_executes() - executes_before;

  // The traced replay runs on the measured cluster, after its loop.
  std::unique_ptr<Replayer> replayer;
  if (args.trace) {
    ReplayConfig config;
    config.mediator = mediator;
    config.bank = &bank;
    config.options = options;
    config.kernel_threads = HardwareThreads();
    replayer = std::make_unique<Replayer>(config);
    const std::vector<Op> sample =
        SampleOps(pool, choose, args.seed, kReplaySample);
    Status status = replayer->MeasureKernelRates(args.seed);
    for (size_t i = 0; status.ok() && i < sample.size(); ++i) {
      status = replayer->Replay(sample[i]);
    }
    if (status.ok()) status = replayer->MeasureOverhead(sample, 2);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: replay: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    loop.attempted += replayer->replayed();
    loop.failed += replayer->mismatches();
    loop.mismatched += replayer->mismatches();
  }
  const bool correct = loop.mismatched == 0;

  // The timed set-ups, each torn down before the next.
  system = System{};
  std::vector<double> setup_s;
  std::vector<IngestSpan> ingests;
  for (int i = 0; i < kSetups; ++i) {
    auto again = SetUp(bank, hot, warm_thresholds);
    if (!again.ok()) {
      std::fprintf(stderr, "perfbench: set-up: %s\n",
                   again.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(again->setup_s);
    ingests.insert(ingests.end(), again->ingests.begin(),
                   again->ingests.end());
  }

  Report report;
  char line[512];
  std::snprintf(line, sizeof(line),
                "perfbench %s: in-process %dx%d at %" PRId64
                "^3, %d closed-loop client(s), %s, seed %" PRIu64
                ", data seed %" PRIu64 ", build %s, nproc %d",
                args.workload.c_str(), kNodes, kProcessesPerNode, kGridN,
                clients,
                hot ? "node cache on (warmed at 2 RMS), mediator cache off"
                    : "caches off",
                args.seed, args.data_seed, PERFBENCH_BUILD_TYPE,
                HardwareThreads());
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "input generation %.3f s (untimed); set-up median %.3f s of "
                "%d; RSS %.1f MB at loop start, %.1f MB peak",
                generated_s, Median(setup_s), kSetups, start_rss_mb,
                peak_rss_mb);
  report.Note(line);
  report.Note(SetUpTimes(setup_s));

  if (!args.trace) {
    std::vector<double> ingest_rates;
    for (const IngestSpan& span : ingests) {
      ingest_rates.push_back(static_cast<double>(span.atoms) /
                             ((span.end_ms - span.start_ms) / 1000.0));
    }
    AddEndToEndMetrics(&report, setup_s, loop, peak_rss_mb,
                       Median(ingest_rates));
  } else {
    for (const IngestSpan& span : ingests) {
      replayer->RecordIngest(span.start_ms, span.end_ms, span.atoms);
    }
    replayer->AddMetrics(&report, loop.reads.Percentile(0.5));
    LoopCounters counters;
    counters.reads = loop.reads.size();
    counters.node_executes = loop_executes;
    counters.node_lookups = node_lookups.load();
    counters.node_hits = node_hits.load();
    AddLoopMetrics(&report, counters);
  }

  std::snprintf(line, sizeof(line),
                "{\"workload\": \"%s\", \"grid\": %" PRId64
                ", \"nodes\": %d, \"processes_per_node\": %d, \"clients\": %d, "
                "\"seed\": %" PRIu64 ", \"data_seed\": %" PRIu64
                ", \"seconds\": %.3f, \"trace\": %s, \"setups\": %d, "
                "\"build_type\": \"%s\", \"nproc\": %d, \"node_cache\": %s, "
                "\"mediator_cache_mb\": 0, \"flush_policy\": \"in-memory "
                "stores, nothing flushed\"}",
                args.workload.c_str(), kGridN, kNodes, kProcessesPerNode,
                clients, args.seed, args.data_seed, args.seconds,
                args.trace ? "true" : "false", kSetups, PERFBENCH_BUILD_TYPE,
                HardwareThreads(), hot ? "true" : "false");
  report.WriteRecord(args, "in-process 4x4", line, correct, loop.attempted,
                     loop.failed,
                     replayer ? &replayer->tracer() : nullptr);
  report.Print(correct, loop.attempted, loop.failed);
  return correct ? 0 : 1;
}

}  // namespace

int RunColdSweep(const Args& args) { return RunInproc(args, false); }
int RunHotExplore(const Args& args) { return RunInproc(args, true); }

}  // namespace perfbench
