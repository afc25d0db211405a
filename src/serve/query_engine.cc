#include "serve/query_engine.h"

#include <utility>

#include "core/path_index.h"
#include "labeling/shard_manifest.h"

namespace wcsd {

QueryEngine::QueryEngine(std::shared_ptr<const WcIndex> index,
                         QueryEngineOptions options)
    : index_(std::move(index)), options_(options) {
  size_t threads = ResolveThreadCount(options_.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  stats_ = std::make_unique<ServeStatsBlock>(threads);
  if (options_.decode_cache_bytes > 0 && index_->compressed()) {
    decode_cache_ =
        std::make_shared<DecodedLabelCache>(options_.decode_cache_bytes);
  }
  if ((options_.shared_cache || options_.cache_bytes > 0) &&
      index_->finalized()) {
    cache_fingerprint_ = options_.known_fingerprint != 0
                             ? options_.known_fingerprint
                             : index_->ContentFingerprint();
    cache_ = options_.shared_cache
                 ? options_.shared_cache
                 : std::make_shared<ResultCache>(options_.cache_bytes);
    if (options_.pre_bind_invalidate) {
      options_.pre_bind_invalidate(cache_fingerprint_);
    }
    // Unconditional, shared cache or not (the result_cache.h contract): a
    // no-op when the cache is already bound to this snapshot — in
    // particular after a swap coordinator's Rebind/InvalidateDelta — and a
    // wholesale wipe when it is bound to a different one, so a shared
    // cache attached without external invalidation can never serve stale
    // distances.
    cache_->Rebind(cache_fingerprint_);
  }
}

Result<QueryEngine> QueryEngine::Open(const std::string& snapshot_path,
                                      QueryEngineOptions options,
                                      const SnapshotLoadOptions& load) {
  Result<WcIndex> index = WcIndex::LoadMmap(snapshot_path, load);
  if (!index.ok()) return index.status();
  return QueryEngine(
      std::make_shared<const WcIndex>(std::move(index).value()), options);
}

FlatLabelView QueryEngine::CachedView(Vertex v, DecodedLabel* scratch) const {
  if (!decode_cache_->GetOrDecode(index_->compressed_labels(), v, v,
                                  scratch)) {
    scratch->Clear();
  }
  return scratch->View();
}

Distance QueryEngine::DirectQuery(Vertex s, Vertex t, Quality w) const {
  if (!decode_cache_) return index_->Query(s, t, w, options_.impl);
  const size_t n = index_->NumVertices();
  if (s >= n || t >= n) return kInfDistance;
  if (s == t) return 0;
  thread_local DecodedLabel ls, lt;
  return QueryFlat(CachedView(s, &ls), CachedView(t, &lt), w, options_.impl);
}

IntervalQueryResult QueryEngine::DirectInterval(Vertex s, Vertex t,
                                                Quality w) const {
  if (!decode_cache_) return index_->QueryWithInterval(s, t, w);
  const size_t n = index_->NumVertices();
  if (s >= n || t >= n) return IntervalQueryResult{};
  if (s == t) return IntervalQueryResult{0, -kInfQuality, kInfQuality};
  thread_local DecodedLabel ls, lt;
  return QueryFlatMergeWithInterval(CachedView(s, &ls), CachedView(t, &lt),
                                    w);
}

Distance QueryEngine::CachedQuery(Vertex s, Vertex t, Quality w) const {
  // The guards mirror WcIndex::Query so degenerate queries never reach the
  // cache (their answers are free to recompute).
  const size_t n = index_->NumVertices();
  if (s >= n || t >= n) return kInfDistance;
  if (s == t) return 0;
  return cache_->GetOrCompute(s, t, w, cache_fingerprint_, [&] {
    return DirectInterval(s, t, w);
  });
}

Distance QueryEngine::Query(Vertex s, Vertex t, Quality w) const {
  Distance d = cache_ ? CachedQuery(s, t, w) : DirectQuery(s, t, w);
  stats_->RecordSingle(d);
  return d;
}

std::vector<Distance> QueryEngine::Batch(
    const std::vector<BatchQueryInput>& queries) const {
  if (cache_) {
    return RunServeBatch(pool_.get(), num_threads(), options_.min_chunk,
                         *stats_, queries, [&](const BatchQueryInput& q) {
                           return CachedQuery(q.s, q.t, q.w);
                         });
  }
  return RunServeBatch(pool_.get(), num_threads(), options_.min_chunk,
                       *stats_, queries, [&](const BatchQueryInput& q) {
                         return DirectQuery(q.s, q.t, q.w);
                       });
}

std::vector<RankedCandidate> QueryEngine::TopK(
    Vertex source, std::span<const Vertex> candidates, Quality w,
    size_t k) const {
  const WcIndex& index = *index_;
  std::vector<RankedCandidate> ranked;
  if (decode_cache_) {
    // Ring of two scratch labels, mirroring WcIndex::DecodedView: the
    // top-k kernel holds at most one candidate's span alongside the
    // source scan.
    thread_local DecodedLabel ring[2];
    thread_local unsigned next = 0;
    ranked = TopKClosestOverLabels(
        index.NumVertices(), source, candidates, w, k, [&](Vertex v) {
          return CachedView(v, &ring[next++ & 1]).entries;
        });
  } else {
    ranked = TopKClosestOverLabels(
        index.NumVertices(), source, candidates, w, k,
        [&index](Vertex v) { return index.EntriesFor(v); });
  }
  stats_->RecordMany(candidates.size(), ranked.size());
  return ranked;
}

std::vector<ProfilePoint> QueryEngine::Profile(
    Vertex s, Vertex t, std::span<const Quality> thresholds) const {
  std::vector<ProfilePoint> profile = QualityProfileOverIntervals(
      thresholds,
      [&](Quality w) { return DirectInterval(s, t, w); });
  uint64_t reachable = 0;
  for (const ProfilePoint& p : profile) {
    if (p.dist != kInfDistance) ++reachable;
  }
  stats_->RecordMany(thresholds.size(), reachable);
  return profile;
}

Result<std::vector<Vertex>> QueryEngine::Path(Vertex s, Vertex t,
                                              Quality w) const {
  if (options_.graph == nullptr) {
    return Status::Unimplemented(
        "path reconstruction needs the graph (QueryEngineOptions::graph); "
        "this engine serves distances only");
  }
  const size_t n = index_->NumVertices();
  if (s >= n || t >= n) {
    stats_->RecordSingle(kInfDistance);
    return std::vector<Vertex>{};
  }
  PathQueryStats path_stats;
  std::vector<Vertex> path =
      QueryConstrainedPath(*index_, *options_.graph, s, t, w, &path_stats);
  stats_->RecordSingle(path.empty() ? kInfDistance : 0);
  stats_->RecordPathFallbacks(path_stats.fallback_steps);
  return path;
}

QueryEngineStats QueryEngine::stats() const {
  QueryEngineStats stats =
      WithDecodeStats(WithCacheStats(stats_->Aggregate(), cache_.get()),
                      decode_cache_.get());
  stats.has_parents = index_->has_parents() ? 1 : 0;
  stats.compressed = index_->compressed() ? 1 : 0;
  stats.label_bytes = index_->MemoryBytes();
  stats.uncompressed_label_bytes =
      index_->compressed() ? index_->compressed_labels().UncompressedBytes()
                           : stats.label_bytes;
  return stats;
}

}  // namespace wcsd
