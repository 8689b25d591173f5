// service_mix: the deployed shape at 64^3. The benchmark process hosts a
// Mediator over 4 forked turbdb_node processes (R=1, durable file stores,
// fsync off) and serves it on a loopback ephemeral port with ServeMediator
// under turbdb_server's defaults (mediator cache 64 MB). Closed-loop
// reader connections, one per hardware thread but one, issue turbdb_loadgen's
// mix of buffered threshold, streamed threshold and friends-of-friends reads
// plus pdf and top-k on the ingested time-steps, while one writer calls
// Mediator::IngestTimestep for new time-steps built from atoms generated
// during set-up. This is the only workload that crosses net, node_service,
// remote_node, the WAL and the mediator cache, and it puts writes beside
// reads: ingest bumps the cache epoch and contends for the nodes.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "cluster/service.h"
#include "core/turbdb.h"
#include "net/server.h"
#include "net/socket.h"
#include "replay.h"

namespace perfbench {

namespace {

constexpr int64_t kGridN = 64;
constexpr int kNodes = 4;
constexpr int kProcessesPerNode = 4;
/// Time-steps ingested during set-up; the readers query only these.
constexpr int32_t kReadSteps = 2;
/// Catalog room for the writer's new time-steps.
constexpr int32_t kMaxNewSteps = 240;
constexpr int kSetups = 7;
/// The writer starts one new time-step (velocity, then magnetic) per
/// period: a simulation emitting output, not a bulk load.
constexpr double kWriterPeriodMs = 500.0;
constexpr uint64_t kMediatorCacheBytes = 64ull << 20;
constexpr size_t kReplaySample = 15;

/// The read mix, per hundred reads: turbdb_loadgen's default mix (45
/// buffered threshold, 45 streamed, 10 FoF) with pdf and top-k added, five
/// each, taken evenly from threshold and streamed.
struct Share {
  OpKind kind;
  int percent;
};
constexpr Share kMix[5] = {{OpKind::kThreshold, 40},
                           {OpKind::kStreamed, 40},
                           {OpKind::kFof, 10},
                           {OpKind::kPdf, 5},
                           {OpKind::kTopK, 5}};
/// turbdb_loadgen's query shapes: threshold and streamed reads of 32^3
/// sub-boxes at 2 RMS, FoF over the whole step at 3.5 RMS. The seed raises
/// each level by up to half an RMS.
constexpr int64_t kBoxEdge = 32;
constexpr double kThresholdRms = 2.0;
constexpr double kFofRms = 3.5;
constexpr double kRmsJitter = 0.5;
/// Sub-box threshold levels per field and time-step, and FoF levels.
constexpr int kLevels = 4;
constexpr int kFofLevels = 2;
/// Distinct sub-box reads per kind. turbdb_loadgen draws a fresh box for
/// every read so that the mediator cache rarely answers; this many boxes
/// keep repeats, and with them cache hits, to a few percent of a run.
constexpr int kBoxOps = 16384;
/// Sub-box reads whose box-filtered reference is checked against a direct
/// reference query at set-up.
constexpr int kDirectChecks = 12;
/// One threshold or streamed read in this many goes to the newest copy of
/// its time-step that the writer has finished.
constexpr int kLatestEvery = 16;

/// turbdb_node processes forked for one set-up: ephemeral loopback ports,
/// private storage directories, output to log files. Every child is
/// reaped when the object dies, and dies with this process
/// (PR_SET_PDEATHSIG) if the benchmark is killed first.
class NodeProcesses {
 public:
  static Result<std::unique_ptr<NodeProcesses>> Launch(
      const std::string& binary, const std::string& dir) {
    auto nodes = std::unique_ptr<NodeProcesses>(new NodeProcesses());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return Status::IOError("cannot create " + dir);
    {
      // Reserve one port per node, then release them for the children.
      std::vector<net::Socket> listeners;
      for (int i = 0; i < kNodes; ++i) {
        TURBDB_ASSIGN_OR_RETURN(net::Socket listener,
                                net::TcpListen("127.0.0.1", 0));
        TURBDB_ASSIGN_OR_RETURN(const uint16_t port,
                                net::LocalPort(listener));
        nodes->topology_.nodes.push_back(NodeAddress{"127.0.0.1", port});
        listeners.push_back(std::move(listener));
      }
      for (net::Socket& listener : listeners) listener.Close();
    }
    const std::string peers = nodes->topology_.ToString();
    for (int i = 0; i < kNodes; ++i) {
      const std::string id = std::to_string(i);
      std::filesystem::create_directories(dir + "/node" + id, ec);
      if (ec) return Status::IOError("cannot create " + dir + "/node" + id);
      std::vector<std::string> args = {
          binary,          "--node-id",     id,
          "--bind",        "127.0.0.1",     "--port",
          std::to_string(nodes->topology_.nodes[static_cast<size_t>(i)].port),
          "--peers",       peers,           "--storage-dir",
          dir + "/node" + id,              "--no-fsync",
          "--wal-fsync",   "none"};
      TURBDB_ASSIGN_OR_RETURN(
          const pid_t pid, Spawn(args, dir + "/node" + id + ".log"));
      nodes->pids_.push_back(pid);
    }
    for (int i = 0; i < kNodes; ++i) TURBDB_RETURN_NOT_OK(nodes->WaitReady(i));
    return nodes;
  }

  ~NodeProcesses() { Terminate(); }
  NodeProcesses(const NodeProcesses&) = delete;
  NodeProcesses& operator=(const NodeProcesses&) = delete;

  const ClusterTopology& topology() const { return topology_; }
  const std::vector<pid_t>& pids() const { return pids_; }

  /// SIGTERM (graceful drain), then SIGKILL after 5 s; reaps every child.
  void Terminate() {
    for (pid_t pid : pids_) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t& pid : pids_) {
      if (pid <= 0) continue;
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 500 && !reaped; ++i) {
        reaped = ::waitpid(pid, &status, WNOHANG) == pid;
        if (!reaped) ::usleep(10 * 1000);
      }
      if (!reaped) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
      }
      pid = -1;
    }
  }

 private:
  NodeProcesses() = default;

  static Result<pid_t> Spawn(std::vector<std::string> args,
                             const std::string& log) {
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::Internal(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(126);  // Parent already gone.
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    return pid;
  }

  /// Polls every 2 ms for up to 10 s: the poll period adds to setup_s, so
  /// it is kept small against a start-up of tens of milliseconds.
  Status WaitReady(int i) {
    const NodeAddress& address = topology_.nodes[static_cast<size_t>(i)];
    const double give_up = NowMs() + 10000.0;
    while (NowMs() < give_up) {
      auto conn = net::TcpConnect(address.host, address.port,
                                  net::Deadline::After(250));
      if (conn.ok()) return Status::OK();
      int status = 0;
      pid_t& pid = pids_[static_cast<size_t>(i)];
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return Status::Internal("turbdb_node " + std::to_string(i) +
                                " exited during start-up");
      }
      ::usleep(2 * 1000);
    }
    return Status::Unavailable("turbdb_node " + std::to_string(i) +
                               " is not listening on " + address.ToString());
  }

  ClusterTopology topology_;
  std::vector<pid_t> pids_;
};

/// One set-up: nodes, the mediator over them, and the server in front.
/// Members die in reverse order: server, mediator, then the nodes.
struct System {
  std::unique_ptr<NodeProcesses> nodes;
  std::unique_ptr<Mediator> mediator;
  std::unique_ptr<net::Server> server;
  std::string dir;
  double setup_s = 0.0;
};

Result<std::unique_ptr<System>> SetUp(const Args& args, const AtomBank& bank,
                                      const std::string& dir) {
  const double start = NowMs();
  auto system = std::make_unique<System>();
  system->dir = dir;
  TURBDB_ASSIGN_OR_RETURN(system->nodes,
                          NodeProcesses::Launch(args.node_binary, dir));
  ClusterConfig config;
  config.num_nodes = kNodes;
  config.processes_per_node = kProcessesPerNode;
  config.topology = system->nodes->topology();
  config.topology.replication_factor = 1;
  config.fsync_ingest = false;
  config.mediator_cache_bytes = kMediatorCacheBytes;
  TURBDB_ASSIGN_OR_RETURN(system->mediator, Mediator::Create(config));
  TURBDB_RETURN_NOT_OK(system->mediator->CreateDataset(
      MakeMhdDataset(kDataset, kGridN, kReadSteps + kMaxNewSteps)));
  for (int32_t t = 0; t < kReadSteps; ++t) {
    for (const char* field : {"velocity", "magnetic"}) {
      TURBDB_RETURN_NOT_OK(system->mediator->IngestTimestep(
          kDataset, field, t, bank.Source(field, t)));
    }
  }
  // turbdb_server's defaults, on a loopback ephemeral port.
  net::ServerOptions server_options;
  server_options.bind_address = "127.0.0.1";
  server_options.port = 0;
  server_options.num_workers = 8;
  server_options.max_frame_bytes = 64u << 20;
  server_options.default_deadline_ms = 60000;
  server_options.stream_chunk_points = kStreamChunkPoints;
  TURBDB_ASSIGN_OR_RETURN(
      system->server, ServeMediator(system->mediator.get(), server_options));
  system->setup_s = (NowMs() - start) / 1000.0;
  return system;
}

/// Removes the run's private directory on every exit path.
struct DirGuard {
  std::string dir;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

struct IngestRecord {
  double start_ms;
  double end_ms;
  uint64_t atoms;
};

/// The points of z-sorted `points` inside `box`, in the same order.
std::vector<ThresholdPoint> InBox(const std::vector<ThresholdPoint>& points,
                                  const Box3& box) {
  std::vector<ThresholdPoint> inside;
  for (const ThresholdPoint& p : points) {
    uint32_t x = 0, y = 0, z = 0;
    p.Coords(&x, &y, &z);
    if (box.ContainsPoint(x, y, z)) inside.push_back(p);
  }
  return inside;
}

}  // namespace

int RunServiceMix(const Args& args) {
  const double run_start = NowMs();
  DirGuard guard{args.work_dir};
  AtomBank bank(kGridN, args.data_seed);
  for (int32_t t = 0; t < kReadSteps; ++t) {
    for (const char* field : {"velocity", "magnetic"}) {
      Status s = bank.Generate(field, t);
      if (!s.ok()) {
        std::fprintf(stderr, "perfbench: generate: %s\n",
                     s.ToString().c_str());
        return 1;
      }
    }
  }
  const double generated_s = (NowMs() - run_start) / 1000.0;

  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  for (int s = 0; s < kSetups; ++s) {
    if (system != nullptr) {
      const std::string old_dir = system->dir;
      system.reset();
      std::error_code ec;
      std::filesystem::remove_all(old_dir, ec);
    }
    auto built =
        SetUp(args, bank, args.work_dir + "/setup" + std::to_string(s));
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    system = std::move(built).value();
    setup_s.push_back(system->setup_s);
  }
  Mediator* mediator = system->mediator.get();
  const uint16_t port = system->server->port();

  // Operation pool, laid out kind by kind in kMix order. Each answer's
  // reference is computed with every cache off. The sub-box reads share
  // kLevels thresholds per field and time-step: their references are the
  // points of a whole-step reference answer at that level inside the box,
  // and kDirectChecks of them are checked against a direct reference
  // query. The seed draws time-steps, boxes and thresholds.
  std::vector<Op> pool;
  std::vector<size_t> kind_end;  // pool end of each kMix entry
  uint64_t reference_mismatches = 0;
  {
    std::vector<std::vector<double>> rms(kReadSteps, std::vector<double>(3));
    for (int32_t t = 0; t < kReadSteps; ++t) {
      for (int f = 0; f < 3; ++f) {
        auto r = WholeStepRms(mediator, kFields[f], t, kGridN);
        if (!r.ok()) {
          std::fprintf(stderr, "perfbench: rms: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
        rms[static_cast<size_t>(t)][static_cast<size_t>(f)] = *r;
      }
    }
    SplitMix64 rng(MixSeed(args.seed, 0x5e41));
    auto whole_step_op = [&rms](OpKind kind, int f, int32_t t) {
      Op op;
      op.kind = kind;
      op.raw_field = kFields[f].raw;
      op.derived_field = kFields[f].derived;
      op.timestep = t;
      op.box = Box3::WholeGrid(kGridN, kGridN, kGridN);
      op.bin_width = rms[static_cast<size_t>(t)][static_cast<size_t>(f)];
      op.num_bins = 10;
      op.k = 100;
      return op;
    };
    // Whole-step answers at each sub-box level, [t][f][level].
    QueryOptions uncached;
    uncached.use_cache = false;
    std::vector<std::vector<std::vector<Op>>> levels(
        kReadSteps, std::vector<std::vector<Op>>(3));
    std::vector<std::vector<std::vector<std::vector<ThresholdPoint>>>>
        level_points(kReadSteps,
                     std::vector<std::vector<std::vector<ThresholdPoint>>>(3));
    for (int32_t t = 0; t < kReadSteps; ++t) {
      for (int f = 0; f < 3; ++f) {
        for (int l = 0; l < kLevels; ++l) {
          Op op = whole_step_op(OpKind::kThreshold, f, t);
          op.threshold = op.bin_width *
                         (kThresholdRms +
                          kRmsJitter * (l + rng.NextDouble()) / kLevels);
          auto out = MediatorCall(mediator, op, uncached);
          if (!out.ok()) {
            std::fprintf(stderr, "perfbench: reference %s: %s\n",
                         op.Describe().c_str(),
                         out.status().ToString().c_str());
            return 1;
          }
          levels[static_cast<size_t>(t)][static_cast<size_t>(f)].push_back(op);
          level_points[static_cast<size_t>(t)][static_cast<size_t>(f)]
              .push_back(std::move(out->points));
        }
      }
    }
    int box_reads = 0;
    for (const Share& share : kMix) {
      if (share.kind == OpKind::kThreshold ||
          share.kind == OpKind::kStreamed) {
        for (int i = 0; i < kBoxOps; ++i, ++box_reads) {
          const int f = i % 3;
          const auto t = static_cast<int32_t>(rng.NextBounded(kReadSteps));
          const size_t l = rng.NextBounded(kLevels);
          Op op = levels[static_cast<size_t>(t)][static_cast<size_t>(f)][l];
          op.kind = share.kind;
          int64_t lo[3];
          for (int d = 0; d < 3; ++d) {
            lo[d] =
                static_cast<int64_t>(rng.NextBounded(kGridN - kBoxEdge + 1));
          }
          op.box = Box3(lo[0], lo[1], lo[2], lo[0] + kBoxEdge,
                        lo[1] + kBoxEdge, lo[2] + kBoxEdge);
          op.latest = box_reads % kLatestEvery == kLatestEvery - 1;
          op.expected = FingerprintPoints(InBox(
              level_points[static_cast<size_t>(t)][static_cast<size_t>(f)][l],
              op.box));
          pool.push_back(op);
        }
      } else {
        // One read per field and time-step (FoF: kFofLevels levels each).
        for (int32_t t = 0; t < kReadSteps; ++t) {
          for (int f = 0; f < 3; ++f) {
            const int count = share.kind == OpKind::kFof ? kFofLevels : 1;
            for (int l = 0; l < count; ++l) {
              Op op = whole_step_op(share.kind, f, t);
              if (share.kind == OpKind::kFof) {
                op.threshold =
                    op.bin_width *
                    (kFofRms + kRmsJitter * (l + rng.NextDouble()) / count);
              }
              auto expected = ReferenceFingerprint(mediator, op);
              if (!expected.ok()) {
                std::fprintf(stderr, "perfbench: reference %s: %s\n",
                             op.Describe().c_str(),
                             expected.status().ToString().c_str());
                return 1;
              }
              op.expected = *expected;
              pool.push_back(op);
            }
          }
        }
      }
      kind_end.push_back(pool.size());
    }
    for (int c = 0; c < kDirectChecks; ++c) {
      const Op& op = pool[static_cast<size_t>(c) * 2 * kBoxOps / kDirectChecks];
      auto direct = ReferenceFingerprint(mediator, op);
      if (!direct.ok()) {
        std::fprintf(stderr, "perfbench: reference %s: %s\n",
                     op.Describe().c_str(),
                     direct.status().ToString().c_str());
        return 1;
      }
      if (!(*direct == op.expected)) {
        ++reference_mismatches;
        std::fprintf(stderr,
                     "perfbench: MISMATCH (reference) %s: direct %s, "
                     "whole-step answer inside the box %s\n",
                     op.Describe().c_str(), direct->ToString().c_str(),
                     op.expected.ToString().c_str());
      }
    }
  }
  // New time-step R + i is a copy of set-up step i % R, so its answers
  // equal that step's reference answers. A "latest" read goes to the
  // newest finished copy of its own set-up step.
  std::atomic<int32_t> newest_done{-1};
  auto resolve = [&newest_done](const Op& op) {
    Op resolved = op;
    const int32_t done = newest_done.load();
    if (!op.latest || done < 0) return resolved;
    int32_t i = done - (((done - op.timestep) % kReadSteps) + kReadSteps) %
                           kReadSteps;
    if (i >= 0) resolved.timestep = kReadSteps + i;
    return resolved;
  };
  Chooser choose = [&kind_end](int, uint64_t, SplitMix64* rng) -> size_t {
    uint64_t percent = rng->NextBounded(100);
    size_t k = 0;
    while (percent >= static_cast<uint64_t>(kMix[k].percent)) {
      percent -= static_cast<uint64_t>(kMix[k].percent);
      ++k;
    }
    const size_t begin = k == 0 ? 0 : kind_end[k - 1];
    return begin + static_cast<size_t>(rng->NextBounded(kind_end[k] - begin));
  };

  // One reader per hardware thread but one, which is left to the writer.
  const int readers = std::max(1, HardwareThreads() - 1);
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < readers; ++c) {
    clients.push_back(std::make_unique<net::Client>("127.0.0.1", port));
  }
  // Warm-up, untimed but checked: every whole-step read (the pool after
  // the sub-box reads) once, so the measured window sees the caches and the
  // nodes' memory in their steady state. The sub-box reads are too many to
  // warm and mostly miss anyway.
  uint64_t warmup_reads = 0;
  uint64_t warmup_mismatches = 0;
  for (size_t i = kind_end[1]; i < pool.size(); ++i) {
    const Op& op = pool[i];
    auto out = ClientCall(clients[0].get(), resolve(op), QueryOptions{});
    if (!out.ok()) {
      std::fprintf(stderr, "perfbench: warm-up %s: %s\n",
                   op.Describe().c_str(), out.status().ToString().c_str());
      return 1;
    }
    ++warmup_reads;
    if (!(out->fingerprint == op.expected)) {
      ++warmup_mismatches;
      std::fprintf(stderr,
                   "perfbench: MISMATCH (warm-up) %s: got %s, reference "
                   "(caches off) %s\n",
                   op.Describe().c_str(), out->fingerprint.ToString().c_str(),
                   op.expected.ToString().c_str());
    }
  }

  std::vector<pid_t> pids = system->nodes->pids();
  pids.push_back(::getpid());
  for (pid_t pid : pids) ResetPeakRss(pid);
  const MediatorCacheStats cache_before = mediator->result_cache().stats();
  const uint64_t executes_before = mediator->node_executes();
  const uint64_t shed_before = system->server->stats().queries_shed;

  // The writer: new time-steps from the set-up atoms, one per period.
  std::vector<IngestRecord> ingests;
  std::atomic<uint64_t> write_failures{0};
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    const double start = NowMs();
    for (int32_t i = 0; i < kMaxNewSteps && !stop_writer.load(); ++i) {
      const int32_t t = kReadSteps + i;
      for (const char* field : {"velocity", "magnetic"}) {
        const double t0 = NowMs();
        Status s = mediator->IngestTimestep(kDataset, field, t,
                                            bank.Source(field, i % kReadSteps));
        const double t1 = NowMs();
        if (!s.ok()) {
          ++write_failures;
          std::fprintf(stderr, "perfbench: FAILED ingest t=%d %s: %s\n", t,
                       field, s.ToString().c_str());
        } else {
          ingests.push_back({t0, t1, bank.atoms_per_field()});
        }
      }
      newest_done.store(i);
      const double next = start + (i + 1) * kWriterPeriodMs;
      while (!stop_writer.load() && NowMs() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  });
  Executor execute = [&](int client, const Op& op) -> Result<Fingerprint> {
    TURBDB_ASSIGN_OR_RETURN(
        CallOutcome out,
        ClientCall(clients[static_cast<size_t>(client)].get(), resolve(op),
                   QueryOptions{}));
    return out.fingerprint;
  };
  LoopResult loop =
      RunClosedLoop(readers, args.seconds, args.seed, pool, choose, execute);
  stop_writer.store(true);
  writer.join();
  loop.attempted +=
      kDirectChecks + warmup_reads + ingests.size() + write_failures.load();
  loop.failed +=
      reference_mismatches + warmup_mismatches + write_failures.load();
  loop.mismatched += reference_mismatches + warmup_mismatches;

  double peak_rss_mb = 0.0;
  for (pid_t pid : pids) peak_rss_mb += PeakRssMb(pid);
  std::vector<double> ingest_rates;
  for (const IngestRecord& r : ingests) {
    ingest_rates.push_back(static_cast<double>(r.atoms) /
                           ((r.end_ms - r.start_ms) / 1000.0));
  }

  Report report;
  char line[1024];
  std::snprintf(line, sizeof(line),
                "perfbench service_mix: mediator + ServeMediator over %d "
                "forked turbdb_node (R=1) at %" PRId64
                "^3, %d reader connection(s) + 1 writer, mediator cache 64 "
                "MB, seed %" PRIu64 ", data seed %" PRIu64
                ", build %s, nproc %d",
                kNodes, kGridN, readers, args.seed, args.data_seed,
                PERFBENCH_BUILD_TYPE, HardwareThreads());
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "input generation %.3f s (untimed); set-up median %.3f s of "
                "%d; writer ingested %zu field-steps",
                generated_s, Median(setup_s), kSetups, ingests.size());
  report.Note(line);
  report.Note(SetUpTimes(setup_s));

  std::unique_ptr<net::Client> trace_client;
  std::unique_ptr<Replayer> replayer;
  if (!args.trace) {
    AddEndToEndMetrics(&report, setup_s, loop, peak_rss_mb,
                       Median(ingest_rates));
  } else {
    const MediatorCacheStats cache_after = mediator->result_cache().stats();
    LoopCounters counters;
    counters.reads = loop.reads.size();
    counters.node_executes = mediator->node_executes() - executes_before;
    counters.mediator_hits = cache_after.hits - cache_before.hits;
    counters.mediator_misses = cache_after.misses - cache_before.misses;
    counters.invalidations =
        cache_after.invalidations - cache_before.invalidations;
    counters.stale_inserts =
        cache_after.stale_inserts - cache_before.stale_inserts;
    counters.shed = system->server->stats().queries_shed - shed_before;

    trace_client = std::make_unique<net::Client>("127.0.0.1", port);
    std::vector<double> ping_us;
    Status status;
    for (int i = 0; i < 50 && status.ok(); ++i) {
      const double t0 = NowMs();
      status = trace_client->Ping();
      ping_us.push_back((NowMs() - t0) * 1000.0);
    }
    counters.ping_us = Median(ping_us);

    ReplayConfig config;
    config.mediator = mediator;
    config.bank = &bank;
    config.kernel_threads = HardwareThreads();
    config.client = trace_client.get();
    config.data_steps = kReadSteps;
    replayer = std::make_unique<Replayer>(config);
    std::vector<Op> sample;
    for (const Op& op : SampleOps(pool, choose, args.seed, kReplaySample)) {
      sample.push_back(resolve(op));
    }
    if (status.ok()) status = replayer->MeasureKernelRates(args.seed);
    for (size_t i = 0; status.ok() && i < sample.size(); ++i) {
      status = replayer->Replay(sample[i]);
    }
    if (status.ok()) status = replayer->MeasureOverhead(sample, 2);
    // Transport overhead with every cache off: the same reads through the
    // client and on the mediator, interleaved.
    double client_ms = 0.0;
    double direct_ms = 0.0;
    int rtt_ops = 0;
    QueryOptions uncached;
    uncached.use_cache = false;
    for (const Op& op : sample) {
      if (!status.ok()) break;
      if (op.kind != OpKind::kThreshold && op.kind != OpKind::kStreamed) {
        continue;
      }
      double t0 = NowMs();
      auto via_client = ClientCall(trace_client.get(), op, uncached);
      client_ms += NowMs() - t0;
      t0 = NowMs();
      auto direct = MediatorCall(mediator, op, uncached);
      direct_ms += NowMs() - t0;
      if (!via_client.ok()) status = via_client.status();
      if (!direct.ok()) status = direct.status();
      ++rtt_ops;
    }
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: replay: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    loop.attempted += replayer->replayed();
    loop.failed += replayer->mismatches();
    loop.mismatched += replayer->mismatches();
    counters.rtt_overhead_ms =
        rtt_ops > 0 ? (client_ms - direct_ms) / rtt_ops : 0.0;
    for (const IngestRecord& r : ingests) {
      replayer->RecordIngest(r.start_ms, r.end_ms, r.atoms);
    }
    replayer->AddMetrics(&report, loop.reads.Percentile(0.5));
    AddLoopMetrics(&report, counters);
  }

  const bool correct = loop.mismatched == 0;
  std::string mix;
  for (const Share& share : kMix) {
    if (!mix.empty()) mix += ", ";
    mix += std::string("\"") + OpKindName(share.kind) +
           "\": " + std::to_string(share.percent);
  }
  std::snprintf(
      line, sizeof(line),
      "{\"workload\": \"service_mix\", \"grid\": %" PRId64
      ", \"nodes\": %d, \"processes_per_node\": %d, \"replication\": 1, "
      "\"readers\": %d, \"writers\": 1, \"writer_period_ms\": %.0f, "
      "\"seed\": %" PRIu64 ", \"data_seed\": %" PRIu64
      ", \"seconds\": %.3f, \"trace\": %s, \"setups\": %d, "
      "\"build_type\": \"%s\", \"nproc\": %d, \"mediator_cache_mb\": 64, "
      "\"server_workers\": 8, \"mix_percent\": {%s}, \"box_edge\": %" PRId64
      ", \"flush_policy\": \"durable file stores, ingest fsync off, WAL "
      "fsync none\"}",
      kGridN, kNodes, kProcessesPerNode, readers, kWriterPeriodMs, args.seed,
      args.data_seed, args.seconds, args.trace ? "true" : "false", kSetups,
      PERFBENCH_BUILD_TYPE, HardwareThreads(), mix.c_str(), kBoxEdge);
  report.WriteRecord(args, system->nodes->topology().ToString(), line,
                     correct, loop.attempted, loop.failed,
                     replayer ? &replayer->tracer() : nullptr);
  report.Print(correct, loop.attempted, loop.failed);
  return correct ? 0 : 1;
}

}  // namespace perfbench
