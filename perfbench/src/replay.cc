#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "analysis/fof.h"
#include "fields/field_registry.h"
#include "wire/serializer.h"

namespace perfbench {

namespace {

bool ThresholdFamily(OpKind kind) {
  return kind == OpKind::kThreshold || kind == OpKind::kStreamed ||
         kind == OpKind::kFof;
}

void SortByZ(std::vector<ThresholdPoint>* points) {
  std::sort(points->begin(), points->end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
}

CallOutcome FromThreshold(ThresholdResult result) {
  CallOutcome out;
  out.points = std::move(result.points);
  out.node_stats = std::move(result.node_stats);
  out.fingerprint = FingerprintPoints(out.points);
  return out;
}

}  // namespace

Result<CallOutcome> MediatorCall(Mediator* mediator, const Op& op,
                                 const QueryOptions& options) {
  switch (op.kind) {
    case OpKind::kThreshold: {
      TURBDB_ASSIGN_OR_RETURN(ThresholdResult result,
                              mediator->GetThreshold(op.Threshold(), options));
      return FromThreshold(std::move(result));
    }
    case OpKind::kStreamed: {
      // An in-process consumer of the stream: it keeps the chunks and
      // reassembles them in z order, as net::Client does.
      std::vector<ThresholdPoint> points;
      auto sink = [&points](std::vector<ThresholdPoint> chunk,
                            uint64_t) -> Result<uint64_t> {
        points.insert(points.end(), chunk.begin(), chunk.end());
        return chunk.size() * sizeof(ThresholdPoint);
      };
      TURBDB_ASSIGN_OR_RETURN(
          ThresholdResult result,
          mediator->GetThresholdStreaming(op.Threshold(), options, {},
                                          kStreamChunkPoints, sink));
      SortByZ(&points);
      result.points = std::move(points);
      return FromThreshold(std::move(result));
    }
    case OpKind::kFof: {
      std::vector<std::pair<uint64_t, uint64_t>> clusters;
      auto sink = [&clusters](std::vector<DistributedFofCluster> batch,
                              uint64_t) -> Result<uint64_t> {
        for (const DistributedFofCluster& c : batch) {
          clusters.emplace_back(c.id, c.size());
        }
        return batch.size() * 64;
      };
      TURBDB_RETURN_NOT_OK(mediator
                               ->GetFof(op.Threshold(), options,
                                        kFofLinkingLength, kFofMinClusterSize,
                                        {}, kStreamChunkPoints, sink)
                               .status());
      CallOutcome out;
      out.fingerprint = FingerprintFof(std::move(clusters));
      return out;
    }
    case OpKind::kPdf: {
      TURBDB_ASSIGN_OR_RETURN(PdfResult result, mediator->GetPdf(op.Pdf()));
      CallOutcome out;
      out.fingerprint = FingerprintPdf(result.counts);
      return out;
    }
    case OpKind::kTopK: {
      TURBDB_ASSIGN_OR_RETURN(TopKResult result, mediator->GetTopK(op.TopK()));
      CallOutcome out;
      out.points = std::move(result.points);
      out.fingerprint = FingerprintTopK(out.points);
      return out;
    }
  }
  return Status::InvalidArgument("unknown operation kind");
}

Result<CallOutcome> ClientCall(net::Client* client, const Op& op,
                               const QueryOptions& options) {
  switch (op.kind) {
    case OpKind::kThreshold: {
      TURBDB_ASSIGN_OR_RETURN(ThresholdResult result,
                              client->Threshold(op.Threshold(), options));
      return FromThreshold(std::move(result));
    }
    case OpKind::kStreamed: {
      TURBDB_ASSIGN_OR_RETURN(
          ThresholdResult result,
          client->ThresholdStreamed(op.Threshold(), options));
      return FromThreshold(std::move(result));
    }
    case OpKind::kFof: {
      net::FofRequest request;
      request.query = op.Threshold();
      request.options = options;
      request.linking_length = kFofLinkingLength;
      request.min_cluster_size = kFofMinClusterSize;
      TURBDB_ASSIGN_OR_RETURN(net::FofResult result, client->Fof(request));
      std::vector<std::pair<uint64_t, uint64_t>> clusters;
      for (const net::FofClusterRecord& c : result.clusters) {
        clusters.emplace_back(c.id, c.size);
      }
      CallOutcome out;
      out.fingerprint = FingerprintFof(std::move(clusters));
      return out;
    }
    case OpKind::kPdf: {
      TURBDB_ASSIGN_OR_RETURN(PdfResult result, client->Pdf(op.Pdf()));
      CallOutcome out;
      out.fingerprint = FingerprintPdf(result.counts);
      return out;
    }
    case OpKind::kTopK: {
      TURBDB_ASSIGN_OR_RETURN(TopKResult result, client->TopK(op.TopK()));
      CallOutcome out;
      out.points = std::move(result.points);
      out.fingerprint = FingerprintTopK(out.points);
      return out;
    }
  }
  return Status::InvalidArgument("unknown operation kind");
}

Result<Fingerprint> ReferenceFingerprint(Mediator* mediator, const Op& op) {
  QueryOptions options;
  options.use_cache = false;
  TURBDB_ASSIGN_OR_RETURN(CallOutcome out, MediatorCall(mediator, op, options));
  return out.fingerprint;
}

Result<double> WholeStepRms(Mediator* mediator, const FieldChoice& field,
                            int32_t timestep, int64_t n) {
  FieldStatsQuery query;
  query.dataset = kDataset;
  query.raw_field = field.raw;
  query.derived_field = field.derived;
  query.timestep = timestep;
  query.box = Box3::WholeGrid(n, n, n);
  query.fd_order = kFdOrder;
  TURBDB_ASSIGN_OR_RETURN(FieldStatsResult stats,
                          mediator->GetFieldStats(query));
  return stats.rms;
}

std::vector<Op> SampleOps(const std::vector<Op>& pool, const Chooser& choose,
                          uint64_t seed, size_t count) {
  std::vector<Op> sample;
  SplitMix64 rng(MixSeed(seed, 0x7ace));
  for (size_t i = 0; i < count; ++i) {
    sample.push_back(pool[choose(0, i, &rng)]);
  }
  for (const Op& op : pool) {
    const bool present =
        std::any_of(sample.begin(), sample.end(),
                    [&](const Op& s) { return s.kind == op.kind; });
    if (!present) sample.push_back(op);
  }
  return sample;
}

// ---- Replayer ------------------------------------------------------------

Replayer::Replayer(ReplayConfig config) : config_(std::move(config)) {}

Result<std::shared_ptr<const DerivedField>> Replayer::GetKernel(
    const std::string& derived) {
  auto it = kernels_.find(derived);
  if (it != kernels_.end()) return it->second;
  if (diff_ == nullptr) {
    TURBDB_ASSIGN_OR_RETURN(
        Differentiator diff,
        Differentiator::Create(config_.bank->geometry(), kFdOrder));
    diff_ = std::make_unique<Differentiator>(std::move(diff));
  }
  TURBDB_ASSIGN_OR_RETURN(std::shared_ptr<const DerivedField> field,
                          FieldRegistry::Default().Create(derived, 3));
  kernels_.emplace(derived, field);
  return field;
}

const Slab& Replayer::WholeStepSlab(const std::string& raw, int32_t timestep) {
  const auto key = std::make_pair(raw, timestep);
  auto it = slabs_.find(key);
  if (it != slabs_.end()) return it->second;
  const int64_t n = config_.bank->n();
  // Halo 4 covers every registered kernel at FD order 4 and beyond.
  Slab slab =
      config_.bank->BuildSlab(raw, timestep, Box3::WholeGrid(n, n, n), 4);
  return slabs_.emplace(key, std::move(slab)).first->second;
}

Result<CallOutcome> Replayer::TopCall(const Op& op,
                                      const QueryOptions& options) {
  if (config_.client != nullptr) return ClientCall(config_.client, op, options);
  return MediatorCall(config_.mediator, op, options);
}

Status Replayer::Replay(const Op& op) {
  Mediator* mediator = config_.mediator;
  const QueryOptions& options = config_.options;
  const uint64_t op_id = next_op_++;
  const std::string kind = OpKindName(op.kind);
  Status status;

  // A threshold or streamed read that misses the mediator cache inserts
  // its answer at both tiers, so the calls below it would hit those
  // entries. Such a read is replayed with every cache off, top-level call
  // included; a probe of the mediator cache tells which reads would miss.
  const std::string cache_field = op.raw_field + ":" + op.derived_field;
  const bool mediator_cached =
      options.use_cache && mediator->result_cache().enabled() &&
      (op.kind == OpKind::kThreshold || op.kind == OpKind::kStreamed);
  const bool mediator_hit =
      mediator_cached &&
      mediator->result_cache()
          .Lookup(kDataset, cache_field, kFdOrder, op.timestep, op.box,
                  op.threshold)
          .hit;
  QueryOptions path = options;
  if (mediator_cached && !mediator_hit) path.use_cache = false;

  // Top-level entry point: the call the workload's clients make.
  CallOutcome top;
  uint64_t top_span = 0;
  const double top_ms = tracer_.Time(
      (config_.client != nullptr ? "net.client." : "cluster.") + kind, 0,
      op_id,
      [&] {
        auto r = TopCall(op, path);
        if (r.ok()) {
          top = std::move(r).value();
        } else {
          status = r.status();
        }
      },
      &top_span);
  TURBDB_RETURN_NOT_OK(status);
  if (!(top.fingerprint == op.expected)) {
    ++mismatches_;
    std::fprintf(stderr,
                 "perfbench: MISMATCH (replay) %s: got %s, reference (caches "
                 "off) %s\n",
                 op.Describe().c_str(), top.fingerprint.ToString().c_str(),
                 op.expected.ToString().c_str());
  }

  // The mediator beneath the server, when there is one.
  uint64_t mediator_span = top_span;
  double mediator_ms = top_ms;
  CallOutcome mediated = top;
  if (config_.client != nullptr) {
    mediator_ms = tracer_.Time(
        "cluster." + kind, top_span, op_id,
        [&] {
          auto r = MediatorCall(mediator, op, path);
          if (r.ok()) {
            mediated = std::move(r).value();
          } else {
            status = r.status();
          }
        },
        &mediator_span);
    TURBDB_RETURN_NOT_OK(status);
    totals_.net_self_ms += top_ms - mediator_ms;
  }

  // FoF: the threshold query it clusters, and the in-process clustering
  // of the same points for comparison (a root of its own: it is not on
  // the served path).
  Op threshold_op = op;
  uint64_t threshold_span = mediator_span;
  CallOutcome thresholded = mediated;
  if (op.kind == OpKind::kFof) {
    threshold_op.kind = OpKind::kThreshold;
    tracer_.Time(
        "cluster.threshold", mediator_span, op_id,
        [&] {
          auto r = MediatorCall(mediator, threshold_op, path);
          if (r.ok()) {
            thresholded = std::move(r).value();
          } else {
            status = r.status();
          }
        },
        &threshold_span);
    TURBDB_RETURN_NOT_OK(status);
    totals_.cluster_fof_ms += mediator_ms;
    ++totals_.fof_ops;
    const std::vector<FofPoint> points =
        ToFofPoints(thresholded.points, op.timestep);
    FofParams params;
    params.linking_length = kFofLinkingLength;
    const double n = static_cast<double>(config_.bank->n());
    params.periodic_extent = {n, n, n};
    totals_.analysis_fof_ms += tracer_.Time("analysis.fof", 0, op_id, [&] {
      status = FriendsOfFriends(points, params).status();
    });
    TURBDB_RETURN_NOT_OK(status);
  }

  double below_ms = 0.0;
  bool node_path = true;

  // Mediator-tier cache (threshold and streamed reads consult it).
  if (mediator_cached) {
    const double ms = tracer_.Time("cache.mediator_lookup", threshold_span,
                                   op_id, [&] {
      mediator->result_cache().Lookup(kDataset, cache_field, kFdOrder,
                                      op.timestep, op.box, op.threshold);
    });
    totals_.mediator_lookup_ms += ms;
    below_ms += ms;
    node_path = !mediator_hit;
  }

  uint64_t evaluated = 0;
  for (const NodeExecutionStats& s : thresholded.node_stats) {
    evaluated += s.io.points_evaluated;
    totals_.records_scanned += s.io.cache_records_scanned;
    totals_.points_returned += s.io.points_returned;
  }
  if (!ThresholdFamily(op.kind)) {
    evaluated = static_cast<uint64_t>(op.box.Volume());
  }

  // Node-tier semantic caches (in-process nodes only). The nodes look up
  // in parallel, so the slowest lookup is the layer's share.
  if (node_path && ThresholdFamily(op.kind) && path.use_cache &&
      !mediator->distributed() && mediator->node(0).cache().enabled()) {
    double slowest = 0.0;
    for (const NodeExecutionStats& s : thresholded.node_stats) {
      const double ms =
          tracer_.Time("cache.node_lookup", threshold_span, op_id, [&] {
            auto r = mediator->node(s.node_id).cache().Lookup(
                kDataset, cache_field, op.timestep, kFdOrder, op.box,
                op.threshold);
            if (!r.ok()) status = r.status();
          });
      slowest = std::max(slowest, ms);
      TURBDB_RETURN_NOT_OK(status);
    }
    totals_.node_lookup_ms += slowest;
    below_ms += slowest;
  }

  // Gather and kernel, for operations that evaluated points.
  if (node_path && evaluated > 0) {
    QueryOptions io_only = options;
    io_only.io_only = true;
    io_only.use_cache = false;
    Op gather_op = op;
    gather_op.kind = OpKind::kThreshold;
    ThresholdResult gathered;
    const double gather_ms =
        tracer_.Time("storage.gather", threshold_span, op_id, [&] {
          auto r = mediator->GetThreshold(gather_op.Threshold(), io_only);
          if (r.ok()) {
            gathered = std::move(r).value();
          } else {
            status = r.status();
          }
        });
    TURBDB_RETURN_NOT_OK(status);
    for (const NodeExecutionStats& s : gathered.node_stats) {
      totals_.atoms_read_local += s.io.atoms_read_local;
      totals_.atoms_read_remote += s.io.atoms_read_remote;
      totals_.bytes_read += s.io.bytes_read_local + s.io.bytes_read_remote;
      totals_.gathered_points += s.io.points_evaluated;
    }
    totals_.gather_ms += gather_ms;
    below_ms += gather_ms;

    TURBDB_ASSIGN_OR_RETURN(std::shared_ptr<const DerivedField> kernel,
                            GetKernel(op.derived_field));
    const Slab& slab =
        WholeStepSlab(op.raw_field, op.timestep % config_.data_steps);
    const double predicate = ThresholdFamily(op.kind)
                                 ? op.threshold
                                 : std::numeric_limits<double>::infinity();
    const double kernel_ms =
        tracer_.Time("fields.kernel", threshold_span, op_id, [&] {
          EvaluateNorms(*kernel, *diff_, slab, op.box, predicate,
                        config_.kernel_threads);
        });
    totals_.kernel_ms += kernel_ms;
    totals_.points_evaluated += evaluated;
    below_ms += kernel_ms;
  }

  // Reply sizing: the mediator encodes point replies both ways.
  if (ThresholdFamily(op.kind) || op.kind == OpKind::kTopK) {
    const std::vector<ThresholdPoint>& points = thresholded.points;
    const double binary_ms =
        tracer_.Time("wire.binary_encode", threshold_span, op_id, [&] {
          totals_.result_bytes_binary += EncodePointsBinary(points).size();
        });
    const double xml_ms =
        tracer_.Time("wire.xml_encode", threshold_span, op_id, [&] {
          totals_.result_bytes_xml += EncodePointsXml(points).size();
        });
    totals_.binary_encode_ms += binary_ms;
    totals_.xml_encode_ms += xml_ms;
    ++totals_.wire_ops;
    below_ms += binary_ms + xml_ms;
  }

  // What is left of the mediator-level call is the cluster layer's own:
  // dispatch, merge, sort, FoF stitching and scheduling. It can come out
  // negative when gather and kernel overlap across nodes.
  totals_.mediator_self_ms += mediator_ms - below_ms;
  totals_.root_ms += top_ms;
  ++totals_.ops;
  return Status::OK();
}

Status Replayer::MeasureOverhead(const std::vector<Op>& ops, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < ops.size(); ++i) {
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = ((r + static_cast<int>(i) + pass) % 2) == 0;
        Status status;
        auto call = [&] {
          auto result = TopCall(ops[i], config_.options);
          if (!result.ok()) status = result.status();
        };
        if (traced) {
          totals_.overhead_traced_ms +=
              tracer_.Time("trace.overhead_probe", 0, 0, call);
        } else {
          const double t0 = NowMs();
          call();
          totals_.overhead_bare_ms += NowMs() - t0;
          ++totals_.overhead_calls;
        }
        TURBDB_RETURN_NOT_OK(status);
      }
    }
  }
  return Status::OK();
}

Status Replayer::MeasureKernelRates(uint64_t seed) {
  SplitMix64 rng(MixSeed(seed, 0x6b72));
  const int64_t n = config_.bank->n();
  const int64_t edge = 32;
  for (const FieldChoice& field : kFields) {
    TURBDB_ASSIGN_OR_RETURN(std::shared_ptr<const DerivedField> kernel,
                            GetKernel(field.derived));
    const Slab& slab = WholeStepSlab(field.raw, 0);
    const int64_t x = static_cast<int64_t>(rng.NextBounded(n - edge + 1));
    const int64_t y = static_cast<int64_t>(rng.NextBounded(n - edge + 1));
    const int64_t z = static_cast<int64_t>(rng.NextBounded(n - edge + 1));
    const Box3 box(x, y, z, x + edge, y + edge, z + edge);
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      ms.push_back(tracer_.Time(std::string("fields.kernel_rate.") +
                                    field.derived,
                                0, 0, [&] {
                                  EvaluateNorms(
                                      *kernel, *diff_, slab, box,
                                      std::numeric_limits<double>::infinity(),
                                      1);
                                }));
    }
    kernel_ns_per_point_[field.derived] =
        Median(ms) * 1e6 / static_cast<double>(box.Volume());
  }
  return Status::OK();
}

void Replayer::RecordIngest(double start_ms, double end_ms, uint64_t atoms) {
  tracer_.Record("storage.ingest", 0, 0, start_ms, end_ms);
  totals_.ingest_ms += end_ms - start_ms;
  totals_.ingest_atoms += atoms;
}

void AddLoopMetrics(Report* report, const LoopCounters& c) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report->Add("cache.lookups", static_cast<double>(c.node_lookups), "count");
  report->Add("cache.hit_ratio", ratio(c.node_hits, c.node_lookups), "ratio");
  report->Add("cache.mediator_hit_ratio",
              ratio(c.mediator_hits, c.mediator_hits + c.mediator_misses),
              "ratio");
  report->Add("cache.invalidations", static_cast<double>(c.invalidations),
              "count");
  report->Add("cache.stale_inserts", static_cast<double>(c.stale_inserts),
              "count");
  report->Add("cluster.node_executes_per_query",
              ratio(c.node_executes, c.reads), "count");
  report->Add("net.rtt_overhead_ms", c.rtt_overhead_ms, "ms");
  report->Add("net.ping_us", c.ping_us, "us");
  report->Add("net.shed", static_cast<double>(c.shed), "count");
}

void Replayer::AddMetrics(Report* report, double untraced_p50_ms) const {
  const Totals& t = totals_;
  const double ops = std::max(1, t.ops);
  auto mean = [&](double v) { return v / ops; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  for (const FieldChoice& field : kFields) {
    auto it = kernel_ns_per_point_.find(field.derived);
    report->Add(std::string("fields.kernel_ns_per_point.") + field.derived,
                it == kernel_ns_per_point_.end() ? 0.0 : it->second, "ns");
  }
  report->Add("fields.kernel_ms", mean(t.kernel_ms), "ms");
  report->Add("fields.points_evaluated", mean(t.points_evaluated), "count");
  report->Add("storage.gather_ms", mean(t.gather_ms), "ms");
  report->Add("storage.atoms_read_local", mean(t.atoms_read_local), "count");
  report->Add("storage.atoms_read_remote", mean(t.atoms_read_remote), "count");
  report->Add("storage.bytes_read_per_point",
              ratio(t.bytes_read, t.gathered_points), "B");
  report->Add("storage.ingest_ms_per_atom", ratio(t.ingest_ms, t.ingest_atoms),
              "ms");
  report->Add("cache.node_lookup_ms", mean(t.node_lookup_ms), "ms");
  report->Add("cache.records_scanned_per_point",
              ratio(t.records_scanned, t.points_returned), "count");
  report->Add("cache.mediator_lookup_ms", mean(t.mediator_lookup_ms), "ms");
  report->Add("wire.binary_encode_ms", mean(t.binary_encode_ms), "ms");
  report->Add("wire.xml_encode_ms", mean(t.xml_encode_ms), "ms");
  report->Add("wire.result_bytes_binary",
              ratio(t.result_bytes_binary, t.wire_ops), "B");
  report->Add("wire.result_bytes_xml", ratio(t.result_bytes_xml, t.wire_ops),
              "B");
  report->Add("cluster.mediator_ms", mean(t.mediator_self_ms), "ms");
  report->Add("cluster.fof_ms", ratio(t.cluster_fof_ms, t.fof_ops), "ms");
  report->Add("analysis.fof_ms", ratio(t.analysis_fof_ms, t.fof_ops), "ms");

  // Self-time accounting: the layers' self times sum to the traced
  // top-level time of the same operations.
  const std::pair<const char*, double> layers[] = {
      {"net", t.net_self_ms},
      {"cluster", t.mediator_self_ms},
      {"cache", t.node_lookup_ms + t.mediator_lookup_ms},
      {"storage", t.gather_ms},
      {"fields", t.kernel_ms},
      {"wire", t.binary_encode_ms + t.xml_encode_ms}};
  double sum = 0.0;
  std::string line = "layer self time per sampled op (ms):";
  for (const auto& [layer, total] : layers) {
    sum += mean(total);
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.3f", layer, mean(total));
    line += buf;
  }
  const double bare = t.overhead_bare_ms;
  const double traced = t.overhead_traced_ms;
  const double overhead_pct = bare > 0 ? 100.0 * (traced - bare) / bare : 0.0;
  char tail[320];
  std::snprintf(tail, sizeof(tail),
                " | sum=%.3f; the same ops untraced: %.3f mean; tracing "
                "overhead %.2f%%; untraced query_p50_ms of this run %.3f",
                sum, ratio(bare, t.overhead_calls), overhead_pct,
                untraced_p50_ms);
  report->Note(line + tail);
  report->Add("trace.self_sum_ms", sum, "ms");
  report->Add("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace perfbench
