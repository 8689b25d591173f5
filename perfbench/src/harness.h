#pragma once

// Shared pieces of the measuring program: command-line arguments, latency
// samples, answer fingerprints, the closed-loop client runner, the
// in-memory span recorder, the generated input atoms, and the metric
// report whose last line is the JSON result object.

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "array/atom.h"
#include "array/geometry.h"
#include "array/point.h"
#include "array/slab.h"
#include "common/result.h"
#include "common/rng.h"
#include "fields/derived_field.h"
#include "fields/differentiator.h"
#include "query/query.h"

namespace perfbench {

using namespace turbdb;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seed of the synthetic turbulence; fixed by default so that runs with
  /// different workload seeds measure the same data.
  uint64_t data_seed = 2015;
  /// Directory for run-private files (node stores, logs); removed on exit.
  std::string work_dir;
  /// Directory the result record (provenance, config, spans) goes to.
  std::string out_dir;
  std::string node_binary;
};

double NowMs();
int HardwareThreads();

/// Latency samples of one operation class, in milliseconds, each tagged
/// with when the operation finished.
///
/// The windowed statistics split the run into consecutive time windows of
/// at least kMinWindowSamples samples each (at most kMaxWindows) and
/// report the median over the windows. A host slowdown confined to a
/// minority of the windows then leaves them unchanged.
class Samples {
 public:
  static constexpr size_t kMaxWindows = 6;
  static constexpr size_t kMinWindowSamples = 100;

  /// Adds the latency `ms` of an operation that finished `at_ms` after the
  /// loop started.
  void Add(double at_ms, double ms) { samples_.emplace_back(at_ms, ms); }
  void Append(const Samples& other);
  size_t size() const { return samples_.size(); }
  /// Linear-interpolated percentile, q in [0, 1]; 0 when empty.
  double Percentile(double q) const;
  /// Median over the windows of [0, span_ms) of each window's percentile.
  double WindowedPercentile(double q, double span_ms) const;
  /// Median over the windows of [0, span_ms) of each window's operations
  /// per second.
  double WindowedRate(double span_ms) const;

 private:
  /// The samples of each window, oldest window first.
  std::vector<std::vector<double>> Windows(double span_ms) const;

  std::vector<std::pair<double, double>> samples_;  ///< (at_ms, ms)
};

/// Order-sensitive digest of one answer: the point count (or bin / cluster
/// count) plus a 64-bit hash of the identifying values and stored norms.
struct Fingerprint {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint& other) const {
    return count == other.count && hash == other.hash;
  }
  std::string ToString() const;
};

Fingerprint FingerprintPoints(const std::vector<ThresholdPoint>& points);
/// Top-k rows in a canonical order (norm descending, then z-index).
Fingerprint FingerprintTopK(std::vector<ThresholdPoint> points);
Fingerprint FingerprintPdf(const std::vector<uint64_t>& counts);
/// FoF clusters as (id, size) pairs, sorted by id.
Fingerprint FingerprintFof(std::vector<std::pair<uint64_t, uint64_t>> clusters);

enum class OpKind { kThreshold, kStreamed, kFof, kPdf, kTopK };
const char* OpKindName(OpKind kind);

/// One read operation of a workload, with the answer it must produce.
struct Op {
  OpKind kind = OpKind::kThreshold;
  std::string raw_field;
  std::string derived_field;
  int32_t timestep = 0;
  Box3 box;
  double threshold = 0.0;  ///< Threshold and FoF ops.
  double bin_width = 1.0;  ///< Pdf ops.
  int num_bins = 10;
  uint64_t k = 100;        ///< Top-k ops.
  /// service_mix: read the newest written copy of `timestep` instead.
  bool latest = false;
  Fingerprint expected;

  ThresholdQuery Threshold() const;
  PdfQuery Pdf() const;
  TopKQuery TopK() const;
  /// Enough to reproduce the operation by hand.
  std::string Describe() const;
};

constexpr const char* kDataset = "mhd";
constexpr int kFdOrder = 4;
constexpr double kFofLinkingLength = 2.0;
constexpr uint64_t kFofMinClusterSize = 2;
constexpr uint64_t kStreamChunkPoints = 32768;  // turbdb_server's default

/// The derived fields the workloads cycle over, with their raw inputs.
struct FieldChoice {
  const char* raw;
  const char* derived;
};
extern const FieldChoice kFields[3];

/// Outcome of the measured closed loop.
struct LoopResult {
  Samples reads;                      ///< Every read operation.
  std::map<OpKind, Samples> by_kind;  ///< The same, per operation kind.
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< Errors, shed or timed-out calls, mismatches.
  uint64_t mismatched = 0;  ///< Answers whose fingerprint was wrong.
  double elapsed_s = 0.0;
};

/// What one client call returned: its fingerprint, or the failure.
using Executor = std::function<Result<Fingerprint>(int client, const Op& op)>;
/// Picks the next pool index for `client` (whose private RNG is passed).
using Chooser = std::function<size_t(int client, uint64_t sequence,
                                     SplitMix64* rng)>;

/// Runs `clients` closed-loop clients for `seconds`: each issues its next
/// operation only after the previous reply, checks the fingerprint, and
/// records the latency. Mismatches are printed to stderr with the query
/// that reproduces them.
LoopResult RunClosedLoop(int clients, double seconds, uint64_t seed,
                         const std::vector<Op>& pool, const Chooser& choose,
                         const Executor& execute);

/// In-memory span recorder for the single-threaded replay. Spans are
/// written out only when the run ends.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root.
    uint64_t op = 0;      ///< Spans of one replayed operation share it.
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    double ms() const { return end_ms - start_ms; }
  };

  /// Times `fn` as one span and returns its duration in ms.
  double Time(const std::string& name, uint64_t parent, uint64_t op,
              const std::function<void()>& fn, uint64_t* span_id = nullptr);
  /// Records a span its caller timed.
  void Record(const std::string& name, uint64_t parent, uint64_t op,
              double start_ms, double end_ms);
  void WriteJson(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Synthetic MHD raw data (velocity and magnetic field) generated once per
/// run, outside every timed region: it feeds ingest, and the kernel replay
/// builds its slabs from it.
class AtomBank {
 public:
  AtomBank(int64_t n, uint64_t data_seed);

  /// Generates `field` for `timestep` with all hardware threads.
  Status Generate(const std::string& field, int32_t timestep);
  const GridGeometry& geometry() const { return geometry_; }
  int64_t n() const { return n_; }
  size_t atoms_per_field() const { return codes_.size(); }

  /// The generator callback Mediator::IngestTimestep takes. Atoms of
  /// `source_timestep` are re-keyed to the ingested time-step, so new
  /// time-steps can be built from data generated during set-up.
  std::function<Result<Atom>(int32_t, uint64_t)> Source(
      const std::string& field, int32_t source_timestep) const;

  /// The slab of `field` covering `box` plus `halo` (periodic images
  /// wrapped), assembled the way a database node assembles it.
  Slab BuildSlab(const std::string& field, int32_t timestep, const Box3& box,
                 int halo) const;

 private:
  int64_t n_;
  uint64_t data_seed_;
  GridGeometry geometry_;
  std::vector<uint64_t> codes_;
  std::map<std::pair<std::string, int32_t>, std::map<uint64_t, Atom>> atoms_;
};

/// Evaluates `kernel`'s norm at every point of `box` over `slab` with
/// `threads` threads (z-planes dealt round-robin) and returns the number
/// of points at or above `threshold`.
uint64_t EvaluateNorms(const DerivedField& kernel, const Differentiator& diff,
                       const Slab& slab, const Box3& box, double threshold,
                       int threads);

/// Peak resident set of `pid` (VmHWM) in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// Current resident set of `pid` (VmRSS) in MiB; 0 when unreadable.
double RssMb(pid_t pid);
/// Restarts the VmHWM high-water mark of `pid` at its current RSS.
void ResetPeakRss(pid_t pid);

/// Metrics of one run, printed as human-readable lines and, last, as the
/// one-line JSON result object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  /// Prints every metric line, then the JSON result as the last line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;
  /// Writes the run record (provenance, configuration, metrics and, when
  /// `tracer` is set, every span) to
  /// <out_dir>/<workload>-seed<N>-trace<T>.json; no-op without out_dir.
  void WriteRecord(const Args& args, const std::string& topology,
                   const std::string& config_json, bool correct,
                   uint64_t attempted, uint64_t failed,
                   const Tracer* tracer) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Appends the end-to-end metrics of a run (and its error rate as a note:
/// it is 0 on a healthy run, so the JSON carries it as failed/attempted).
void AddEndToEndMetrics(Report* report, const std::vector<double>& setup_s,
                        const LoopResult& loop, double peak_rss_mb,
                        double ingest_atoms_per_s);

/// Median of a small vector (copy); 0 when empty.
double Median(std::vector<double> values);
/// One note line listing every set-up time of the run, in order.
std::string SetUpTimes(const std::vector<double>& setup_s);

int RunColdSweep(const Args& args);
int RunHotExplore(const Args& args);
int RunServiceMix(const Args& args);

}  // namespace perfbench
