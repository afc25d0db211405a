#include "replay.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/batch.h"
#include "core/path_index.h"
#include "core/wc_index.h"
#include "graph/io.h"
#include "labeling/shard_manifest.h"
#include "labeling/shard_plan.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "openloop.h"
#include "order/hybrid_order.h"
#include "serve/query_engine.h"
#include "serve/sharded_engine.h"
#include "traffic.h"

namespace wcsd::perfbench {
namespace {

/// In-memory span recorder. The parent of a span is the innermost span
/// open when it began; single-threaded by design (the replay is).
class Tracer {
 public:
  uint32_t Begin(const char* name, uint64_t request = 0) {
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    spans_.push_back({name, stack_.empty() ? kNoParent : stack_.back(),
                      NowNs(), 0, request});
    stack_.push_back(id);
    return id;
  }

  void End(uint32_t id) {
    spans_[id].end = NowNs();
    stack_.pop_back();
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t'
          << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
          << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
          << s.request << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  static constexpr uint32_t kNoParent = UINT32_MAX;
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t start;
    uint64_t end;
    uint64_t request;
  };
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

/// Runs `fn` inside a span.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, uint64_t request, Fn&& fn) {
  const uint32_t id = tracer->Begin(name, request);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer->End(id);
  } else {
    auto result = fn();
    tracer->End(id);
    return result;
  }
}

bool SameRanked(const std::vector<RankedCandidate>& a,
                const std::vector<RankedCandidate>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const RankedCandidate& x, const RankedCandidate& y) {
                      return x.vertex == y.vertex && x.dist == y.dist;
                    });
}

bool SameProfile(const std::vector<ProfilePoint>& a,
                 const std::vector<ProfilePoint>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ProfilePoint& x, const ProfilePoint& y) {
                      return x.quality == y.quality && x.dist == y.dist;
                    });
}

bool PathOk(const QualityGraph& g, const Request& r,
            const std::vector<Vertex>& path) {
  if (r.expected == kInfDistance) return path.empty();
  return path.size() == size_t{r.expected} + 1 && path.front() == r.s &&
         path.back() == r.t && IsValidWPath(g, path, r.w);
}

/// Answers one request through the service; true when it matches.
bool ServeOne(const QueryService& service, const Traffic& traffic,
              const QualityGraph& g, const Request& r) {
  switch (r.kind) {
    case Kind::kDistance: {
      Distance d = kInfDistance;
      return service.QueryEx(r.s, r.t, r.w, &d) == ServeOutcome::kOk &&
             d == r.expected;
    }
    case Kind::kTopK: {
      const TopKCase& c = traffic.topk[r.extra];
      std::vector<RankedCandidate> got;
      return service.TopKEx(r.s, c.candidates, r.w, c.k, &got) ==
                 ServeOutcome::kOk &&
             SameRanked(got, c.expected);
    }
    case Kind::kProfile: {
      const ProfileCase& c = traffic.profiles[r.extra];
      std::vector<ProfilePoint> got;
      return service.ProfileEx(r.s, r.t, c.thresholds, &got) ==
                 ServeOutcome::kOk &&
             SameProfile(got, c.expected);
    }
    case Kind::kPath: {
      std::vector<Vertex> got;
      return service.PathEx(r.s, r.t, r.w, &got) == ServeOutcome::kOk &&
             PathOk(g, r, got);
    }
  }
  return false;
}

/// Answers one request over the wire; true when it matches.
bool ClientOne(WcClient* client, const Traffic& traffic, const QualityGraph& g,
               const Request& r) {
  switch (r.kind) {
    case Kind::kDistance: {
      auto d = client->Query(r.s, r.t, r.w);
      return d.ok() && d.value() == r.expected;
    }
    case Kind::kTopK: {
      const TopKCase& c = traffic.topk[r.extra];
      auto got = client->TopK(r.s, c.candidates, r.w, c.k);
      return got.ok() && SameRanked(got.value(), c.expected);
    }
    case Kind::kProfile: {
      const ProfileCase& c = traffic.profiles[r.extra];
      auto got = client->Profile(r.s, r.t, c.thresholds);
      return got.ok() && SameProfile(got.value(), c.expected);
    }
    case Kind::kPath: {
      auto got = client->Path(r.s, r.t, r.w);
      return got.ok() && PathOk(g, r, got.value());
    }
  }
  return false;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  return 1;
}

}  // namespace

int RunReplay(const Flags& flags) {
  auto graph = ReadEdgeListFile(flags.GetString("graph", ""));
  if (!graph.ok()) return Fail(graph.status().ToString());
  const QualityGraph& g = graph.value();
  const std::string workdir = flags.GetString("workdir", ".");
  const std::string serve = flags.GetString("serve", "flat");
  constexpr size_t kRequests = 20000;     // per segment of the stream
  constexpr size_t kRttRequests = 3000;   // of the round-trip segment
  constexpr size_t kShards = 4;           // the social manifest's shards
  const double rate = flags.GetDouble("rate", 5000);
  const double phase_seconds = flags.GetDouble("phase-seconds", 1.0);

  // The stream is cut into segments of kRequests, one per pass below, so
  // each pass meets the caches as the served stream leaves them: fresh
  // requests on uniform traffic, the same hot set on Zipf traffic.
  enum Segment : size_t {
    kWarmUp, kUntracedA, kTraced, kUntracedB, kBatch, kRtt, kSegments
  };
  TrafficOptions options = TrafficOptionsFromFlags(flags);
  options.pool = kSegments * kRequests;
  Traffic traffic = MakeTraffic(g.NumVertices(), options);
  // The core query families run on every workload, from the same endpoint
  // distribution, whether or not the workload's wire traffic carries them.
  TrafficOptions family_options = options;
  family_options.topk_share = family_options.profile_share = 1.0 / 3;
  family_options.path_share = 1.0 / 3;
  family_options.pool = 600;
  family_options.seed = options.seed ^ 0xfa3117ULL;
  Traffic families = MakeTraffic(g.NumVertices(), family_options);

  Tracer tracer;
  uint64_t failed = 0;
  const uint32_t root = tracer.Begin("replay");

  // ---- construction: order, then the labels.
  VertexOrder order = Traced(&tracer, "order.make", 0, [&] {
    HybridOptions hybrid;
    hybrid.degree_threshold = AutoDegreeThreshold(g);
    return HybridOrder(g, hybrid);
  });
  WcIndexOptions build = WcIndexOptions::Plus();
  build.num_threads = 0;
  WcIndex index = Traced(&tracer, "core.build", 0, [&] {
    return WcIndex::BuildWithOrder(g, std::move(order), build);
  });
  const WcIndexBuildStats build_stats = index.build_stats();

  // ---- reference answers from the heap labels, spot-checked by Dijkstra.
  size_t dijkstra_mismatches = 0;
  Traced(&tracer, "bench.reference", 0, [&] {
    ComputeExpected(index, &traffic, kGeneratorThreads);
    ComputeExpected(index, &families, kGeneratorThreads);
    dijkstra_mismatches = CheckReferenceWithDijkstra(g, traffic, 100,
                                                     options.seed);
  });
  if (dijkstra_mismatches > 0) return Fail("reference disagrees with Dijkstra");

  // ---- labeling: pack, write the served files, open the engine.
  Traced(&tracer, "labeling.flat.finalize", 0, [&] { index.Finalize(); });
  const std::string flat_path = workdir + "/replay.wcsnap";
  const std::string compressed_path = workdir + "/replay-c.wcsnap";
  const std::string stem = workdir + "/replay";
  SnapshotWriteOptions compress;
  compress.compress = true;
  Status written = Traced(&tracer, "labeling.snapshot.write", 0, [&] {
    if (serve == "sharded") {
      ShardPlanOptions plan_options;
      plan_options.num_shards = kShards;
      auto plan = PlanShards(index.flat_labels(), plan_options);
      if (!plan.ok()) return plan.status();
      auto set = WriteShardSet(stem, index.flat_labels(), plan.value());
      return set.ok() ? Status::OK() : set.status();
    }
    return serve == "compressed" ? index.SaveSnapshot(compressed_path, compress)
                                 : index.SaveSnapshot(flat_path);
  });
  if (!written.ok()) return Fail(written.ToString());
  // The kernels are measured on both backends whatever the workload serves.
  Status aux = Traced(&tracer, "bench.aux_snapshots", 0, [&] {
    Status st = serve == "flat" ? Status::OK() : index.SaveSnapshot(flat_path);
    if (st.ok() && serve != "compressed") {
      st = index.SaveSnapshot(compressed_path, compress);
    }
    return st;
  });
  if (!aux.ok()) return Fail(aux.ToString());

  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.cache_bytes =
      static_cast<size_t>(flags.GetInt("cache-mb", 0)) << 20;
  engine_options.decode_cache_bytes =
      static_cast<size_t>(flags.GetInt("decode-cache-mb", 0)) << 20;
  if (flags.GetBool("serve-graph", false)) {
    engine_options.graph = std::make_shared<const QualityGraph>(g);
  }
  std::shared_ptr<QueryService> service;
  Status opened = Traced(&tracer, "labeling.snapshot.open", 0, [&] {
    if (serve == "sharded") {
      auto engine =
          ShardedQueryEngine::OpenManifest(stem + ".manifest", engine_options);
      if (!engine.ok()) return engine.status();
      service = MakeQueryService(std::make_shared<const ShardedQueryEngine>(
          std::move(engine).value()));
      return Status::OK();
    }
    auto engine = QueryEngine::Open(
        serve == "compressed" ? compressed_path : flat_path, engine_options);
    if (!engine.ok()) return engine.status();
    service = MakeQueryService(
        std::make_shared<const QueryEngine>(std::move(engine).value()));
    return Status::OK();
  });
  if (!opened.ok()) return Fail(opened.ToString());

  // ---- label kernels, flat and compressed, on the distance requests.
  auto flat = WcIndex::LoadMmap(flat_path);
  auto compressed = WcIndex::LoadMmap(compressed_path);
  if (!flat.ok()) return Fail(flat.status().ToString());
  if (!compressed.ok()) return Fail(compressed.status().ToString());
  // The distance requests of one segment (distance_ids ascends).
  auto distance_ids = [&](Segment segment) {
    const auto& all = traffic.distance_ids;
    return std::vector<uint32_t>(
        std::lower_bound(all.begin(), all.end(), segment * kRequests),
        std::lower_bound(all.begin(), all.end(), (segment + 1) * kRequests));
  };
  const std::vector<uint32_t> ids = distance_ids(kTraced);
  uint64_t entries = 0;
  for (uint32_t id : ids) {
    const Request& r = traffic.requests[id];
    entries += flat.value().EntriesFor(r.s).size() +
               flat.value().EntriesFor(r.t).size();
  }
  for (uint32_t id : ids) {
    const Request& r = traffic.requests[id];
    Distance d = Traced(&tracer, "labeling.flat.query", id, [&] {
      return flat.value().Query(r.s, r.t, r.w);
    });
    if (d != r.expected) ++failed;
  }
  for (uint32_t id : ids) {
    const Request& r = traffic.requests[id];
    Distance d = Traced(&tracer, "labeling.compressed.query", id, [&] {
      return compressed.value().Query(r.s, r.t, r.w);
    });
    if (d != r.expected) ++failed;
  }

  // ---- serve: a segment of requests per pass through the engine (a
  // warm-up, then untraced, traced and untraced passes interleaved in
  // chunks, so a host slowdown lands on traced and untraced requests
  // alike: trace.overhead_pct is the traced pass against the mean of the
  // other two), then batch frames.
  auto untraced = [&](size_t from, size_t to) {
    const uint64_t t0 = NowNs();
    for (size_t i = from; i < to; ++i) {
      if (!ServeOne(*service, traffic, g, traffic.requests[i])) ++failed;
    }
    return static_cast<double>(NowNs() - t0);
  };
  static constexpr const char* kEngineSpan[] = {
      "serve.engine.query", "serve.engine.topk", "serve.engine.profile",
      "serve.engine.path"};
  auto traced = [&](size_t from, size_t to) {
    const uint64_t t0 = NowNs();
    for (size_t i = from; i < to; ++i) {
      const Request& r = traffic.requests[i];
      bool ok = Traced(&tracer, kEngineSpan[static_cast<int>(r.kind)], i,
                       [&] { return ServeOne(*service, traffic, g, r); });
      if (!ok) ++failed;
    }
    return static_cast<double>(NowNs() - t0);
  };
  Traced(&tracer, "bench.warm_up", 0, [&] {
    return untraced(kWarmUp * kRequests, (kWarmUp + 1) * kRequests);
  });
  constexpr size_t kChunk = 500;
  static_assert(kRequests % kChunk == 0);
  double untraced_ns = 0, traced_ns = 0;
  for (size_t at = 0; at < kRequests; at += kChunk) {
    untraced_ns += 0.5 * untraced(kUntracedA * kRequests + at,
                                  kUntracedA * kRequests + at + kChunk);
    traced_ns += traced(kTraced * kRequests + at,
                        kTraced * kRequests + at + kChunk);
    untraced_ns += 0.5 * untraced(kUntracedB * kRequests + at,
                                  kUntracedB * kRequests + at + kChunk);
  }
  const std::vector<uint32_t> batch_ids = distance_ids(kBatch);
  uint64_t batch_queries = 0;
  for (size_t at = 0; at < batch_ids.size(); at += 512) {
    std::vector<BatchQueryInput> batch;
    for (size_t j = at; j < std::min(batch_ids.size(), at + 512); ++j) {
      const Request& r = traffic.requests[batch_ids[j]];
      batch.push_back({r.s, r.t, r.w});
    }
    std::vector<Distance> got;
    ServeOutcome outcome = Traced(&tracer, "serve.engine.batch", at, [&] {
      return service->BatchEx(batch, &got);
    });
    batch_queries += batch.size();
    for (size_t j = 0; j < batch.size(); ++j) {
      if (outcome != ServeOutcome::kOk || got.size() != batch.size() ||
          got[j] != traffic.requests[batch_ids[at + j]].expected) {
        ++failed;
      }
    }
  }

  // ---- core query families on the finalized index.
  for (size_t i = 0; i < families.requests.size(); ++i) {
    const Request& r = families.requests[i];
    bool ok = false;
    if (r.kind == Kind::kTopK) {
      const TopKCase& c = families.topk[r.extra];
      ok = SameRanked(Traced(&tracer, "core.topk", i,
                             [&] {
                               return TopKClosest(index, r.s, c.candidates,
                                                  r.w, c.k);
                             }),
                      c.expected);
    } else if (r.kind == Kind::kProfile) {
      const ProfileCase& c = families.profiles[r.extra];
      ok = SameProfile(Traced(&tracer, "core.profile", i,
                              [&] {
                                return QualityProfile(index, r.s, r.t,
                                                      c.thresholds);
                              }),
                       c.expected);
    } else if (r.kind == Kind::kPath) {
      ok = PathOk(g, r, Traced(&tracer, "core.path", i, [&] {
                    return QueryConstrainedPath(index, g, r.s, r.t, r.w);
                  }));
    } else {
      ok = true;
    }
    if (!ok) ++failed;
  }

  // ---- net: wire encode/parse, then round trips through a live server.
  std::vector<uint8_t> frame;
  for (size_t i = kTraced * kRequests; i < (kTraced + 1) * kRequests; ++i) {
    frame.clear();
    Traced(&tracer, "net.wire.encode", i, [&] {
      AppendRequestFrame(traffic, traffic.requests[i], i, &frame);
    });
    net::WireHeader header{};
    const uint8_t* payload = nullptr;
    net::FrameStatus fs = Traced(&tracer, "net.wire.parse", i, [&] {
      return net::ParseFrame(frame.data(), frame.size(), net::kMaxPayloadBytes,
                             &header, &payload);
    });
    if (fs != net::FrameStatus::kOk || header.request_id != i) ++failed;
  }
  WcServerOptions server_options;
  server_options.num_reactors = kServerReactors;
  auto server = Traced(&tracer, "bench.server_start", 0, [&] {
    return WcServer::Start(service, server_options);
  });
  if (!server.ok()) return Fail(server.status().ToString());
  const uint16_t port = server.value().port();
  auto client = WcClient::Connect("127.0.0.1", port);
  if (!client.ok()) return Fail(client.status().ToString());
  for (size_t i = kRtt * kRequests; i < kRtt * kRequests + kRttRequests; ++i) {
    const Request& r = traffic.requests[i];
    bool ok = Traced(&tracer, "net.rtt", i, [&] {
      return ClientOne(&client.value(), traffic, g, r);
    });
    if (!ok) ++failed;
  }

  // The engine's counters cover the passes above; the open-loop phase
  // below wraps round the stream and would count its own repeats as hits.
  const QueryEngineStats engine = service->Stats();

  // ---- the open-loop generator against the in-process server.
  std::vector<int> conns = ConnectBalanced(port, kConnections, getpid(),
                                           kServerReactors, gettid());
  if (conns.empty()) return Fail("cannot connect the generator");
  size_t cursor = 0;
  PhaseResult phase = Traced(&tracer, "loadgen.phase", 0, [&] {
    return RunOpenLoop(conns, kGeneratorThreads, traffic, &g, &cursor, rate,
                       phase_seconds, options.seed * 131 + 7);
  });
  CloseAll(&conns);
  failed += phase.failed;
  const std::string latency_file = flags.GetString("latency-file", "");
  if (!latency_file.empty() && !WritePhase(latency_file, phase)) {
    return Fail("cannot write " + latency_file);
  }
  const WcServerStats server_stats = server.value().stats();
  server.value().Stop();
  tracer.End(root);

  if (!tracer.Write(flags.GetString("spans", workdir + "/spans.tsv"))) {
    return Fail("cannot write spans");
  }
  std::printf(
      "{\"failed\": %llu, \"checked\": %zu, \"build_entries\": %zu, "
      "\"build_pops\": %zu, \"build_pruned_by_query\": %zu, "
      "\"build_pruned_by_memo\": %zu, \"distance_requests\": %zu, "
      "\"flat_entries\": %llu, \"batch_queries\": %llu, "
      "\"cache_hits\": %llu, \"cache_misses\": %llu, "
      "\"cache_inserts\": %llu, \"cache_evictions\": %llu, "
      "\"decode_hits\": %llu, \"decode_misses\": %llu, "
      "\"cold_pageins\": %llu, \"path_fallbacks\": %llu, "
      "\"overload_rejections\": %llu, \"deadline_rejections\": %llu, "
      "\"phase_attempted\": %llu, \"phase_cpu_s\": %.6f, "
      "\"untraced_ns\": %.0f, \"traced_ns\": %.0f}\n",
      static_cast<unsigned long long>(failed),
      ids.size() * 2 + kRequests * 5 + families.requests.size() +
          static_cast<size_t>(batch_queries) + kRttRequests +
          static_cast<size_t>(phase.attempted),
      build_stats.entries_added, build_stats.pops,
      build_stats.pruned_by_query, build_stats.pruned_by_memo, ids.size(),
      static_cast<unsigned long long>(entries),
      static_cast<unsigned long long>(batch_queries),
      static_cast<unsigned long long>(engine.cache_hits),
      static_cast<unsigned long long>(engine.cache_misses),
      static_cast<unsigned long long>(engine.cache_inserts),
      static_cast<unsigned long long>(engine.cache_evictions),
      static_cast<unsigned long long>(engine.decode_hits),
      static_cast<unsigned long long>(engine.decode_misses),
      static_cast<unsigned long long>(engine.cold_pageins),
      static_cast<unsigned long long>(engine.path_fallbacks),
      static_cast<unsigned long long>(server_stats.overload_rejections),
      static_cast<unsigned long long>(server_stats.deadline_rejections),
      static_cast<unsigned long long>(phase.attempted), phase.cpu_s,
      untraced_ns, traced_ns);
  return 0;
}

}  // namespace wcsd::perfbench
