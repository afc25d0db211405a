// Thread-safe serving engine over an immutable WC-INDEX snapshot.
//
// Construction-side code mutates labels; serving-side code must not. The
// QueryEngine encodes that boundary: it owns a shared_ptr<const WcIndex> —
// typically mmap-loaded via WcIndex::LoadMmap, so start-up is zero-copy —
// and answers single queries and batch workloads from any number of caller
// threads concurrently. Batches fan out over an internal ThreadPool in
// contiguous chunks (serve/batch_runner.h); each worker accumulates into
// its own cache-line-padded stats slot (the per-thread scratch), so the
// only cross-thread traffic on the hot path is the final relaxed
// aggregation.
//
// For indexes larger than one snapshot should hold, see
// serve/sharded_engine.h, which serves vertex-range shard snapshots as a
// single logical index with the same interface.

#ifndef WCSD_SERVE_QUERY_ENGINE_H_
#define WCSD_SERVE_QUERY_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "labeling/query.h"
#include "serve/batch_runner.h"
#include "serve/decode_cache.h"
#include "serve/result_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace wcsd {

struct QueryEngineOptions {
  /// Worker threads for batch evaluation. 0 = the CPUs in the affinity
  /// mask (ResolveThreadCount); 1 = no pool, batches run on the calling
  /// thread.
  size_t num_threads = 0;
  /// Query implementation used for every query (kMerge is the paper's
  /// Query+ and the fastest on every measured workload).
  QueryImpl impl = QueryImpl::kMerge;
  /// Smallest batch slice handed to one worker; bounds scheduling overhead
  /// on small batches.
  size_t min_chunk = 64;
  /// Byte budget for the dominance-aware result cache
  /// (serve/result_cache.h). 0 (the default) disables caching and leaves
  /// the query path exactly as before. When enabled, misses are answered
  /// by the interval-returning merge kernel — answers stay bit-identical
  /// for every `impl` (all four return the same distances) — and the
  /// engine computes IndexContentFingerprint at construction to bind the
  /// cache to the snapshot's identity (one full pass over the label
  /// bytes, which faults an mmap'd snapshot in; only paid when caching).
  size_t cache_bytes = 0;
  /// Externally owned cache shared across engine generations (the hot-swap
  /// serve path). When set (and the index is finalized) the engine uses it
  /// instead of creating its own; lookups and inserts are bound to this
  /// engine's fingerprint (stale generations can neither read nor poison
  /// the shared cache), and the engine Rebinds unconditionally at open —
  /// a no-op when a swap coordinator already invalidated (Rebind or
  /// InvalidateDelta with this engine's fingerprint, before construction),
  /// a wholesale wipe when the cache is still bound to a different
  /// snapshot. cache_bytes is ignored when set.
  std::shared_ptr<ResultCache> shared_cache;
  /// Pre-computed IndexContentFingerprint of the snapshot this engine will
  /// serve. When nonzero and caching is on, the construction-time label
  /// pass is skipped and this value is used verbatim — the swap path
  /// computes it once for InvalidateDelta and must not pay it twice. The
  /// caller owns its correctness; a wrong value breaks cache binding.
  uint64_t known_fingerprint = 0;
  /// Swap-coordinator hook: called with the engine's computed cache
  /// fingerprint after the cache is attached but BEFORE the engine's
  /// unconditional Rebind, while no queries flow through this engine yet.
  /// A scoped InvalidateDelta(fingerprint, ...) here rebinds the shared
  /// cache itself, making the engine's Rebind a no-op — surviving entries
  /// stay warm across the swap instead of being wholesale-wiped. Without
  /// the hook (or if it does not rebind), the Rebind wipes as usual.
  std::function<void(uint64_t fingerprint)> pre_bind_invalidate;
  /// Byte budget for the decoded-label cache (serve/decode_cache.h),
  /// used only when the index serves the compressed backend
  /// (WcIndex::compressed()): hot vertices' decoded labels stay resident
  /// so repeat queries skip the varint walk (and the cold-tier page-in).
  /// 0 (the default) decodes per query into thread-local scratch.
  /// Ignored on the flat backend.
  size_t decode_cache_bytes = 0;
  /// Graph backing constrained-path reconstruction (§V). Path endpoints
  /// need the graph even when the index carries parent quads: a mid-chain
  /// entry pruned during construction forces an index-guided neighbor
  /// step, which reads adjacency. Null (the default) leaves the distance
  /// endpoints untouched and makes Path report kNotSupported /
  /// Unimplemented. Must describe the graph the index was built from.
  std::shared_ptr<const QualityGraph> graph;
};

/// Folds a result cache's counters into engine-level stats; a null cache
/// leaves the cache_* fields zero. Shared by both engines.
inline QueryEngineStats WithCacheStats(QueryEngineStats stats,
                                       const ResultCache* cache) {
  if (cache != nullptr) {
    ResultCacheStats c = cache->stats();
    stats.cache_hits = c.hits;
    stats.cache_misses = c.misses;
    stats.cache_inserts = c.inserts;
    stats.cache_evictions = c.evictions;
  }
  return stats;
}

/// Same for the decoded-label cache's counters; shared by both engines.
inline QueryEngineStats WithDecodeStats(QueryEngineStats stats,
                                        const DecodedLabelCache* cache) {
  if (cache != nullptr) {
    DecodeCacheStats d = cache->stats();
    stats.decode_hits = d.hits;
    stats.decode_misses = d.misses;
    stats.cold_pageins = d.cold_pageins;
  }
  return stats;
}

class QueryEngine {
 public:
  /// Serves `index`, which must not be mutated for the engine's lifetime.
  explicit QueryEngine(std::shared_ptr<const WcIndex> index,
                       QueryEngineOptions options = {});

  /// Maps a snapshot (WcIndex::LoadMmap) and serves it.
  static Result<QueryEngine> Open(const std::string& snapshot_path,
                                  QueryEngineOptions options = {},
                                  const SnapshotLoadOptions& load = {});

  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// One query. Callable from any thread.
  Distance Query(Vertex s, Vertex t, Quality w) const;

  /// Evaluates all queries; results are positionally aligned with the
  /// inputs. Chunks run across the engine's pool. Callable from any
  /// thread, including concurrently with other Batch calls on this engine.
  std::vector<Distance> Batch(
      const std::vector<BatchQueryInput>& queries) const;

  /// One-to-many top-k closest (core/batch.h TopKClosest semantics): the
  /// source's labels are scanned once, then each candidate costs one pass
  /// over its own labels. Counts candidates.size() queries in stats().
  std::vector<RankedCandidate> TopK(Vertex source,
                                    std::span<const Vertex> candidates,
                                    Quality w, size_t k) const;

  /// Quality profile for (s, t) at the given thresholds (core/batch.h
  /// QualityProfile semantics): one interval merge per distinct certified
  /// interval, not one per threshold. Positionally aligned with the input.
  std::vector<ProfilePoint> Profile(Vertex s, Vertex t,
                                    std::span<const Quality> thresholds) const;

  /// Constrained shortest path s -> t (core/path_index.h). Empty vector =
  /// unreachable (or an endpoint out of range). Requires options.graph;
  /// Unimplemented without it. Fallback unwind steps are aggregated into
  /// stats().path_fallbacks.
  Result<std::vector<Vertex>> Path(Vertex s, Vertex t, Quality w) const;

  /// True when options.graph was configured (Path can serve).
  bool has_graph() const { return options_.graph != nullptr; }

  const WcIndex& index() const { return *index_; }
  size_t num_threads() const { return pool_ ? pool_->size() : 1; }
  QueryEngineStats stats() const;

  /// The result cache, or null when options.cache_bytes == 0 (or the
  /// index is not finalized — the serving formats all are).
  const ResultCache* cache() const { return cache_.get(); }

  /// The decoded-label cache, or null unless the index serves the
  /// compressed backend with options.decode_cache_bytes > 0.
  const DecodedLabelCache* decode_cache() const { return decode_cache_.get(); }

  /// IndexContentFingerprint of the served snapshot when caching, 0
  /// otherwise. The swap coordinator feeds this to Rebind/InvalidateDelta.
  uint64_t cache_fingerprint() const { return cache_fingerprint_; }

 private:
  Distance CachedQuery(Vertex s, Vertex t, Quality w) const;
  /// The uncached query path: the index's own routing, or — with a decode
  /// cache — the flat kernels over cache-resident decodes.
  Distance DirectQuery(Vertex s, Vertex t, Quality w) const;
  IntervalQueryResult DirectInterval(Vertex s, Vertex t, Quality w) const;
  /// Decode-cache-backed view of L(v); only callable when decode_cache_.
  FlatLabelView CachedView(Vertex v, DecodedLabel* scratch) const;

  std::shared_ptr<const WcIndex> index_;
  QueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  std::unique_ptr<ServeStatsBlock> stats_;
  std::shared_ptr<ResultCache> cache_;  // null when caching is off
  std::shared_ptr<DecodedLabelCache> decode_cache_;  // null unless cold tier
  uint64_t cache_fingerprint_ = 0;
};

}  // namespace wcsd

#endif  // WCSD_SERVE_QUERY_ENGINE_H_
