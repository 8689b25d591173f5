#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "array/morton.h"
#include "bench_json.h"
#include "core/turbdb.h"
#include "datagen/turbulence.h"

namespace perfbench {

const FieldChoice kFields[3] = {{"velocity", "vorticity"},
                                {"velocity", "q_criterion"},
                                {"magnetic", "current"}};

double NowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// ---- Samples -----------------------------------------------------------

namespace {

double PercentileOf(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace

void Samples::Append(const Samples& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

double Samples::Percentile(double q) const {
  std::vector<double> ms;
  for (const auto& [at, value] : samples_) ms.push_back(value);
  return PercentileOf(std::move(ms), q);
}

std::vector<std::vector<double>> Samples::Windows(double span_ms) const {
  const size_t count = std::max<size_t>(
      1, std::min(kMaxWindows, samples_.size() / kMinWindowSamples));
  std::vector<std::vector<double>> windows(count);
  for (const auto& [at, value] : samples_) {
    const double slot = at / span_ms * static_cast<double>(count);
    windows[std::min(count - 1, static_cast<size_t>(std::max(0.0, slot)))]
        .push_back(value);
  }
  return windows;
}

double Samples::WindowedPercentile(double q, double span_ms) const {
  std::vector<double> per_window;
  for (std::vector<double>& window : Windows(span_ms)) {
    if (!window.empty()) per_window.push_back(PercentileOf(window, q));
  }
  return Median(per_window);
}

double Samples::WindowedRate(double span_ms) const {
  const std::vector<std::vector<double>> windows = Windows(span_ms);
  const double window_s =
      span_ms / 1000.0 / static_cast<double>(windows.size());
  std::vector<double> rates;
  for (const std::vector<double>& window : windows) {
    rates.push_back(static_cast<double>(window.size()) / window_s);
  }
  return Median(rates);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

std::string SetUpTimes(const std::vector<double>& setup_s) {
  std::string line = "set-up times (s):";
  for (double s : setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", s);
    line += buf;
  }
  return line;
}

// ---- Fingerprints --------------------------------------------------------

namespace {

// FNV-1a over 64-bit words.
struct Hasher {
  uint64_t state = 0xcbf29ce484222325ULL;
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state ^= (word >> (8 * i)) & 0xff;
      state *= 0x100000001b3ULL;
    }
  }
  void AddFloat(float value) {
    uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
};

}  // namespace

std::string Fingerprint::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "count=%" PRIu64 " hash=%016" PRIx64, count,
                hash);
  return buf;
}

Fingerprint FingerprintPoints(const std::vector<ThresholdPoint>& points) {
  Hasher h;
  for (const ThresholdPoint& p : points) {
    h.Add(p.zindex);
    h.AddFloat(p.norm);
  }
  return {points.size(), h.state};
}

Fingerprint FingerprintTopK(std::vector<ThresholdPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              if (a.norm != b.norm) return a.norm > b.norm;
              return a.zindex < b.zindex;
            });
  return FingerprintPoints(points);
}

Fingerprint FingerprintPdf(const std::vector<uint64_t>& counts) {
  Hasher h;
  for (uint64_t c : counts) h.Add(c);
  return {counts.size(), h.state};
}

Fingerprint FingerprintFof(
    std::vector<std::pair<uint64_t, uint64_t>> clusters) {
  std::sort(clusters.begin(), clusters.end());
  Hasher h;
  for (const auto& [id, size] : clusters) {
    h.Add(id);
    h.Add(size);
  }
  return {clusters.size(), h.state};
}

// ---- Operations ----------------------------------------------------------

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kThreshold: return "threshold";
    case OpKind::kStreamed: return "streamed";
    case OpKind::kFof: return "fof";
    case OpKind::kPdf: return "pdf";
    case OpKind::kTopK: return "topk";
  }
  return "?";
}

ThresholdQuery Op::Threshold() const {
  ThresholdQuery q;
  q.dataset = kDataset;
  q.raw_field = raw_field;
  q.derived_field = derived_field;
  q.timestep = timestep;
  q.box = box;
  q.threshold = threshold;
  q.fd_order = kFdOrder;
  return q;
}

PdfQuery Op::Pdf() const {
  PdfQuery q;
  q.dataset = kDataset;
  q.raw_field = raw_field;
  q.derived_field = derived_field;
  q.timestep = timestep;
  q.box = box;
  q.fd_order = kFdOrder;
  q.bin_width = bin_width;
  q.num_bins = num_bins;
  return q;
}

TopKQuery Op::TopK() const {
  TopKQuery q;
  q.dataset = kDataset;
  q.raw_field = raw_field;
  q.derived_field = derived_field;
  q.timestep = timestep;
  q.box = box;
  q.fd_order = kFdOrder;
  q.k = k;
  return q;
}

std::string Op::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s %s:%s t=%d box=[%" PRId64 ",%" PRId64 ",%" PRId64
                ")-[%" PRId64 ",%" PRId64 ",%" PRId64 ") threshold=%.17g "
                "bin_width=%.17g bins=%d k=%" PRIu64 " fd_order=%d%s",
                OpKindName(kind), raw_field.c_str(), derived_field.c_str(),
                timestep, box.lo[0], box.lo[1], box.lo[2], box.hi[0],
                box.hi[1], box.hi[2], threshold, bin_width, num_bins, k,
                kFdOrder, latest ? " (newest copy)" : "");
  return buf;
}

// ---- Closed loop -----------------------------------------------------------

LoopResult RunClosedLoop(int clients, double seconds, uint64_t seed,
                         const std::vector<Op>& pool, const Chooser& choose,
                         const Executor& execute) {
  std::vector<LoopResult> per_client(static_cast<size_t>(clients));
  std::mutex report_mutex;
  const double start = NowMs();
  const double end = start + seconds * 1000.0;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& out = per_client[static_cast<size_t>(c)];
      SplitMix64 rng(MixSeed(seed, 0x100 + static_cast<uint64_t>(c)));
      for (uint64_t sequence = 0; NowMs() < end; ++sequence) {
        const Op& op = pool[choose(c, sequence, &rng)];
        ++out.attempted;
        const double t0 = NowMs();
        Result<Fingerprint> got = execute(c, op);
        const double done = NowMs();
        const double ms = done - t0;
        if (!got.ok()) {
          ++out.failed;
          std::lock_guard<std::mutex> lock(report_mutex);
          std::fprintf(stderr, "perfbench: FAILED %s: %s\n",
                       op.Describe().c_str(),
                       got.status().ToString().c_str());
          continue;
        }
        if (!(*got == op.expected)) {
          ++out.failed;
          ++out.mismatched;
          std::lock_guard<std::mutex> lock(report_mutex);
          std::fprintf(stderr,
                       "perfbench: MISMATCH %s: got %s, reference (caches "
                       "off) %s\n",
                       op.Describe().c_str(), got->ToString().c_str(),
                       op.expected.ToString().c_str());
          continue;
        }
        out.reads.Add(done - start, ms);
        out.by_kind[op.kind].Add(done - start, ms);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult total;
  total.elapsed_s = (NowMs() - start) / 1000.0;
  for (const LoopResult& r : per_client) {
    total.reads.Append(r.reads);
    for (const auto& [kind, samples] : r.by_kind) {
      total.by_kind[kind].Append(samples);
    }
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.mismatched += r.mismatched;
  }
  return total;
}

// ---- Tracer ----------------------------------------------------------------

double Tracer::Time(const std::string& name, uint64_t parent, uint64_t op,
                    const std::function<void()>& fn, uint64_t* span_id) {
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.op = op;
  span.name = name;
  if (span_id != nullptr) *span_id = span.id;
  span.start_ms = NowMs();
  fn();
  span.end_ms = NowMs();
  spans_.push_back(span);
  return span.ms();
}

void Tracer::Record(const std::string& name, uint64_t parent, uint64_t op,
                    double start_ms, double end_ms) {
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.op = op;
  span.name = name;
  span.start_ms = start_ms;
  span.end_ms = end_ms;
  spans_.push_back(span);
}

void Tracer::WriteJson(std::FILE* out) const {
  std::fprintf(out, "  \"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n    {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"op\": %" PRIu64
                 ", \"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f}",
                 i == 0 ? "" : ",", s.id, s.parent, s.op, s.name.c_str(),
                 s.start_ms, s.end_ms);
  }
  std::fprintf(out, "\n  ]\n");
}

// ---- Input data ----------------------------------------------------------

AtomBank::AtomBank(int64_t n, uint64_t data_seed)
    : n_(n),
      data_seed_(data_seed),
      geometry_(MakeMhdDataset(kDataset, n, 1).geometry) {
  for (int64_t az = 0; az < geometry_.AtomsAlong(2); ++az) {
    for (int64_t ay = 0; ay < geometry_.AtomsAlong(1); ++ay) {
      for (int64_t ax = 0; ax < geometry_.AtomsAlong(0); ++ax) {
        codes_.push_back(MortonEncode3(static_cast<uint32_t>(ax),
                                       static_cast<uint32_t>(ay),
                                       static_cast<uint32_t>(az)));
      }
    }
  }
}

Status AtomBank::Generate(const std::string& field, int32_t timestep) {
  // The same specs the repository's benches and demo server ingest.
  const TurbulenceSpec spec = field == "magnetic"
                                  ? DefaultMhdSpec(data_seed_ * 7919 + 13)
                                  : DefaultMhdSpec(data_seed_);
  const SyntheticField generator(spec, geometry_, 3);
  std::vector<Atom> atoms(codes_.size());
  std::vector<Status> failures(static_cast<size_t>(HardwareThreads()));
  std::vector<std::thread> threads;
  for (int w = 0; w < HardwareThreads(); ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = static_cast<size_t>(w); i < codes_.size();
           i += static_cast<size_t>(HardwareThreads())) {
        auto atom = generator.GenerateAtom(timestep, codes_[i]);
        if (!atom.ok()) {
          failures[static_cast<size_t>(w)] = atom.status();
          return;
        }
        atoms[i] = std::move(atom).value();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : failures) TURBDB_RETURN_NOT_OK(s);
  std::map<uint64_t, Atom>& slot = atoms_[{field, timestep}];
  for (size_t i = 0; i < codes_.size(); ++i) {
    slot.emplace(codes_[i], std::move(atoms[i]));
  }
  return Status::OK();
}

std::function<Result<Atom>(int32_t, uint64_t)> AtomBank::Source(
    const std::string& field, int32_t source_timestep) const {
  const std::map<uint64_t, Atom>* slot = &atoms_.at({field, source_timestep});
  return [slot](int32_t timestep, uint64_t zindex) -> Result<Atom> {
    auto it = slot->find(zindex);
    if (it == slot->end()) return Status::NotFound("atom not generated");
    Atom atom = it->second;
    atom.key.timestep = timestep;
    return atom;
  };
}

Slab AtomBank::BuildSlab(const std::string& field, int32_t timestep,
                         const Box3& box, int halo) const {
  const std::map<uint64_t, Atom>& slot = atoms_.at({field, timestep});
  const int64_t w = geometry_.atom_width();
  const Box3 cover = geometry_.AtomCover(box.Grown(halo));
  Slab slab(Box3(cover.lo[0] * w, cover.lo[1] * w, cover.lo[2] * w,
                 cover.hi[0] * w, cover.hi[1] * w, cover.hi[2] * w),
            3);
  for (int64_t dz = cover.lo[2]; dz < cover.hi[2]; ++dz) {
    for (int64_t dy = cover.lo[1]; dy < cover.hi[1]; ++dy) {
      for (int64_t dx = cover.lo[0]; dx < cover.hi[0]; ++dx) {
        const int64_t c[3] = {dx, dy, dz};
        uint32_t wrapped[3];
        for (int d = 0; d < 3; ++d) {
          const int64_t na = geometry_.AtomsAlong(d);
          wrapped[d] = static_cast<uint32_t>(((c[d] % na) + na) % na);
        }
        const Atom& atom =
            slot.at(MortonEncode3(wrapped[0], wrapped[1], wrapped[2]));
        slab.CopyAtom(atom, Box3(dx * w, dy * w, dz * w, (dx + 1) * w,
                                 (dy + 1) * w, (dz + 1) * w));
      }
    }
  }
  return slab;
}

uint64_t EvaluateNorms(const DerivedField& kernel, const Differentiator& diff,
                       const Slab& slab, const Box3& box, double threshold,
                       int threads) {
  std::vector<uint64_t> hits(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      uint64_t count = 0;
      for (int64_t z = box.lo[2] + w; z < box.hi[2]; z += threads) {
        for (int64_t y = box.lo[1]; y < box.hi[1]; ++y) {
          for (int64_t x = box.lo[0]; x < box.hi[0]; ++x) {
            if (kernel.NormAt(slab, diff, x, y, z) >= threshold) ++count;
          }
        }
      }
      hits[static_cast<size_t>(w)] = count;
    });
  }
  for (std::thread& t : pool) t.join();
  uint64_t total = 0;
  for (uint64_t h : hits) total += h;
  return total;
}

// ---- Memory ----------------------------------------------------------------

namespace {

double StatusFieldMb(pid_t pid, const char* field) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  const size_t length = std::strlen(field);
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0) {
      return std::strtod(line.c_str() + length, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb(pid_t pid) { return StatusFieldMb(pid, "VmHWM:"); }
double RssMb(pid_t pid) { return StatusFieldMb(pid, "VmRSS:"); }

void ResetPeakRss(pid_t pid) {
  // Hand freed heap back to the kernel first, so the new baseline does not
  // depend on what set-up happened to leave cached in malloc's arenas.
  if (pid == ::getpid()) malloc_trim(0);
  std::ofstream clear("/proc/" + std::to_string(pid) + "/clear_refs");
  clear << "5";
}

void AddEndToEndMetrics(Report* report, const std::vector<double>& setup_s,
                        const LoopResult& loop, double peak_rss_mb,
                        double ingest_atoms_per_s) {
  const double span_ms = loop.elapsed_s * 1000.0;
  auto kind_p50 = [&loop, span_ms](OpKind kind) {
    auto it = loop.by_kind.find(kind);
    return it == loop.by_kind.end()
               ? 0.0
               : it->second.WindowedPercentile(0.5, span_ms);
  };
  char note[256];
  std::snprintf(note, sizeof(note),
                "reads: %zu ok of %" PRIu64
                " attempted in %.3f s; error_rate %.6f ratio (%" PRIu64
                " failed, %" PRIu64 " wrong answers)",
                loop.reads.size(), loop.attempted, loop.elapsed_s,
                loop.attempted > 0 ? static_cast<double>(loop.failed) /
                                         static_cast<double>(loop.attempted)
                                   : 0.0,
                loop.failed, loop.mismatched);
  report->Note(note);
  std::string by_kind = "p50/p90 by kind (ms):";
  for (const auto& [kind, samples] : loop.by_kind) {
    std::snprintf(note, sizeof(note), " %s %.3f/%.3f (n=%zu)",
                  OpKindName(kind), samples.Percentile(0.5),
                  samples.Percentile(0.9), samples.size());
    by_kind += note;
  }
  report->Note(by_kind);
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("query_p50_ms", loop.reads.WindowedPercentile(0.5, span_ms),
              "ms");
  report->Add("query_p90_ms", loop.reads.WindowedPercentile(0.9, span_ms),
              "ms");
  report->Add("throughput_qps", loop.reads.WindowedRate(span_ms), "1/s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  report->Add("streamed_p50_ms", kind_p50(OpKind::kStreamed), "ms");
  report->Add("fof_p50_ms", kind_p50(OpKind::kFof), "ms");
  report->Add("ingest_atoms_per_s", ingest_atoms_per_s, "1/s");
}

// ---- Report ----------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Report::WriteRecord(const Args& args, const std::string& topology,
                         const std::string& config_json, bool correct,
                         uint64_t attempted, uint64_t failed,
                         const Tracer* tracer) const {
  if (args.out_dir.empty()) return;
  char name[160];
  std::snprintf(name, sizeof(name), "/%s-seed%" PRIu64 "-trace%d.json",
                args.workload.c_str(), args.seed, args.trace ? 1 : 0);
  const std::string path = args.out_dir + name;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  turbdb::bench::WriteProvenance(out, topology);
  std::fprintf(out, "  \"config\": %s,\n", config_json.c_str());
  std::fprintf(out,
               "  \"correct\": %s, \"attempted\": %" PRIu64
               ", \"failed\": %" PRIu64 ",\n  \"metrics\": {",
               correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::fprintf(out, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", metrics_[i].name.c_str(),
                 metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::fprintf(out, "\n  }%s\n", tracer != nullptr ? "," : "");
  if (tracer != nullptr) tracer->WriteJson(out);
  std::fprintf(out, "}\n");
  std::fclose(out);
}

}  // namespace perfbench
