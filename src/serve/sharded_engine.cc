#include "serve/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "search/constrained_dijkstra.h"
#include "util/checksum.h"

namespace wcsd {

namespace {

std::string RangeString(uint64_t begin, uint64_t end) {
  std::string out = "[";
  out += std::to_string(begin);
  out += ", ";
  out += std::to_string(end);
  out += ")";
  return out;
}

}  // namespace

Result<ShardedQueryEngine> ShardedQueryEngine::Assemble(
    std::vector<Shard> shards, uint64_t num_vertices,
    QueryEngineOptions options, std::optional<uint64_t> known_fingerprint) {
  ShardedQueryEngine engine;
  engine.options_ = options;
  engine.num_vertices_ = num_vertices;
  engine.shards_ = std::move(shards);
  // Sort by (begin, end) so an empty shard [x, x) lands before the
  // non-empty shard starting at x regardless of input order — otherwise
  // the tiling check below would flag a false overlap.
  std::sort(engine.shards_.begin(), engine.shards_.end(),
            [](const Shard& a, const Shard& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  uint64_t cursor = 0;
  for (size_t i = 0; i < engine.shards_.size(); ++i) {
    const Shard& shard = engine.shards_[i];
    if (shard.begin != cursor) {
      std::string message = "shards do not tile the vertex range: ";
      message += shard.begin > cursor ? "gap" : "overlap";
      message += " at vertex " + std::to_string(std::min(cursor, shard.begin));
      message += " — shard " + std::to_string(i) + " (" + shard.path + ")";
      message += " covers " + RangeString(shard.begin, shard.end);
      message += " but the range is tiled up to " + std::to_string(cursor);
      return Status::InvalidArgument(std::move(message));
    }
    cursor = shard.end;
  }
  if (cursor != engine.num_vertices_) {
    std::string message = "shards do not cover the full vertex range (end at ";
    message += std::to_string(cursor) + " of " +
               std::to_string(engine.num_vertices_);
    if (!engine.shards_.empty()) {
      const Shard& last = engine.shards_.back();
      message += "; last shard " +
                 std::to_string(engine.shards_.size() - 1) + " (" +
                 last.path + ") covers " + RangeString(last.begin, last.end);
    }
    message += ")";
    return Status::InvalidArgument(std::move(message));
  }
  engine.begins_.reserve(engine.shards_.size());
  for (const Shard& shard : engine.shards_) {
    engine.begins_.push_back(shard.begin);
    if (shard.quarantined) ++engine.num_quarantined_;
    if (shard.is_compressed) ++engine.num_compressed_;
  }
  size_t threads = ResolveThreadCount(options.num_threads);
  if (threads > 1) engine.pool_ = std::make_unique<ThreadPool>(threads);
  engine.stats_ = std::make_unique<ServeStatsBlock>(threads);
  if (options.decode_cache_bytes > 0 && engine.num_compressed_ > 0) {
    engine.decode_cache_ =
        std::make_shared<DecodedLabelCache>(options.decode_cache_bytes);
  }
  if (options.shared_cache || options.cache_bytes > 0) {
    engine.cache_fingerprint_ =
        known_fingerprint.has_value() ? *known_fingerprint
        : options.known_fingerprint != 0
            ? options.known_fingerprint
            : engine.ContentFingerprint();
    engine.cache_ = options.shared_cache
                        ? options.shared_cache
                        : std::make_shared<ResultCache>(options.cache_bytes);
    if (options.pre_bind_invalidate) {
      options.pre_bind_invalidate(engine.cache_fingerprint_);
    }
    // Unconditional (result_cache.h contract): no-op when the swap path
    // already invalidated for this fingerprint, a wholesale wipe when the
    // shared cache is still bound to a different snapshot.
    engine.cache_->Rebind(engine.cache_fingerprint_);
  }
  return engine;
}

uint64_t ShardedQueryEngine::ContentFingerprint() const {
  // Chain the per-shard CRCs in tiling order: CRC of a concatenation is
  // the CRC of its pieces chained, so this equals IndexContentFingerprint
  // of the unsharded index no matter where the cuts fall (the same
  // computation OpenManifest verifies against the manifest's fingerprint).
  const uint64_t n = num_vertices_;
  const uint32_t seed = Crc32c(&n, sizeof(n));
  uint32_t entries_crc = seed;
  uint32_t groups_crc = seed;
  for (const Shard& shard : shards_) {
    if (shard.is_compressed) {
      // Same chain through a per-vertex decode: HubGroup.begin is
      // vertex-relative, so the decoded slices concatenate to the raw
      // arrays byte for byte.
      if (!shard.compressed.ChainContentCrcs(&entries_crc, &groups_crc)) {
        return 0;
      }
      continue;
    }
    auto entries = shard.labels.raw_entries();
    auto groups = shard.labels.raw_groups();
    entries_crc = Crc32c(entries.data(), entries.size() * sizeof(LabelEntry),
                         entries_crc);
    groups_crc =
        Crc32c(groups.data(), groups.size() * sizeof(HubGroup), groups_crc);
  }
  return (uint64_t{groups_crc} << 32) | entries_crc;
}

Result<ShardedQueryEngine> ShardedQueryEngine::OpenMmap(
    const std::vector<std::string>& shard_paths, QueryEngineOptions options,
    const SnapshotLoadOptions& load) {
  if (shard_paths.empty()) {
    return Status::InvalidArgument("no shard snapshots given");
  }
  std::vector<Shard> shards;
  uint64_t num_vertices = 0;
  for (const std::string& path : shard_paths) {
    Result<MappedSnapshot> snapshot = LoadSnapshotMmap(path, load);
    if (!snapshot.ok()) return snapshot.status();
    MappedSnapshot& mapped = snapshot.value();
    if (shards.empty()) {
      num_vertices = mapped.info.num_vertices_total;
    } else if (num_vertices != mapped.info.num_vertices_total) {
      return Status::InvalidArgument(
          "shard " + path + " belongs to a different index (vertex totals "
          "disagree)");
    }
    Shard shard;
    shard.begin = mapped.info.vertex_begin;
    shard.end = mapped.info.vertex_end;
    shard.path = path;
    if (mapped.info.compressed) {
      shard.compressed = std::move(mapped.compressed);
      shard.is_compressed = true;
    } else {
      shard.labels = std::move(mapped.labels);
    }
    shards.push_back(std::move(shard));
  }
  return Assemble(std::move(shards), num_vertices, options);
}

Result<ShardedQueryEngine> ShardedQueryEngine::OpenManifest(
    const std::string& manifest_path, QueryEngineOptions options,
    const SnapshotLoadOptions& load, const DegradedOpenOptions& degraded) {
  // The manifest itself is never quarantined: it is the source of truth
  // for what the shard set should look like, and without it there is no
  // way to know which ranges a failed shard was supposed to cover.
  Result<ShardManifest> read = ReadShardManifest(manifest_path);
  if (!read.ok()) return read.status();
  const ShardManifest& manifest = read.value();
  WCSD_RETURN_NOT_OK(manifest.ValidateTiling());

  // Fingerprint recomputation chains the per-shard payload CRCs in tiling
  // order; ValidateTiling just proved the manifest order IS tiling order.
  const uint64_t n = manifest.num_vertices_total;
  const uint32_t crc_seed = Crc32c(&n, sizeof(n));
  uint32_t entries_crc = crc_seed;
  uint32_t groups_crc = crc_seed;

  std::vector<Shard> shards;
  size_t healthy = 0;
  // A quarantined shard's bytes are missing from the CRC chain, so the
  // whole-index fingerprint cross-check is only meaningful when every
  // shard loaded.
  bool fingerprint_complete = true;
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardManifestEntry& entry = manifest.shards[i];
    const std::string path = ResolveShardPath(manifest_path, entry.path);
    const std::string which =
        "shard " + std::to_string(i) + " (" + path + ")";
    Status failure = Status::OK();
    Result<MappedSnapshot> snapshot = LoadSnapshotMmap(path, load);
    if (!snapshot.ok()) {
      failure = Status(snapshot.status().code(),
                       "manifest " + manifest_path + ": " + which + ": " +
                           snapshot.status().message());
    } else {
      const MappedSnapshot& mapped = snapshot.value();
      if (mapped.info.num_vertices_total != manifest.num_vertices_total ||
          mapped.info.vertex_begin != entry.vertex_begin ||
          mapped.info.vertex_end != entry.vertex_end) {
        failure = Status::InvalidArgument(
            "manifest " + manifest_path + ": " + which + " covers " +
            RangeString(mapped.info.vertex_begin, mapped.info.vertex_end) +
            " of " + std::to_string(mapped.info.num_vertices_total) +
            " vertices but the manifest records " +
            RangeString(entry.vertex_begin, entry.vertex_end) + " of " +
            std::to_string(manifest.num_vertices_total));
      } else if (mapped.info.header_crc != entry.snapshot_header_crc) {
        failure = Status::Corruption(
            "manifest " + manifest_path + ": " + which +
            " is not the file the manifest was written for (snapshot header "
            "checksum mismatch)");
      } else {
        // Logical totals work for both backends: a compressed shard keeps
        // the logical offset arrays populated exactly so that counts
        // cross-check without a decode.
        const uint64_t entries = mapped.info.compressed
                                     ? mapped.compressed.TotalEntries()
                                     : mapped.labels.TotalEntries();
        const uint64_t groups = mapped.info.compressed
                                    ? mapped.compressed.TotalGroups()
                                    : mapped.labels.raw_groups().size();
        if (entries != entry.entry_count || groups != entry.group_count) {
          failure = Status::Corruption(
              "manifest " + manifest_path + ": " + which +
              " entry/group counts disagree with the manifest");
        }
      }
    }
    if (!failure.ok()) {
      if (!degraded.quarantine_failed_shards) return failure;
      // Degraded mode: remember the planned range so routing still works,
      // but serve nothing from it. The manifest's tiling survives, so
      // every other shard's queries are untouched.
      Shard quarantined;
      quarantined.begin = entry.vertex_begin;
      quarantined.end = entry.vertex_end;
      quarantined.path = path;
      quarantined.quarantined = true;
      shards.push_back(std::move(quarantined));
      fingerprint_complete = false;
      continue;
    }
    MappedSnapshot& mapped = snapshot.value();
    if (load.verify_checksums) {
      if (mapped.info.compressed) {
        if (!mapped.compressed.ChainContentCrcs(&entries_crc, &groups_crc)) {
          return Status::Corruption(
              "manifest " + manifest_path + ": " + which +
              " compressed labels fail to decode for fingerprinting");
        }
      } else {
        auto entry_bytes = mapped.labels.raw_entries();
        auto group_bytes = mapped.labels.raw_groups();
        entries_crc = Crc32c(entry_bytes.data(),
                             entry_bytes.size() * sizeof(LabelEntry),
                             entries_crc);
        groups_crc = Crc32c(group_bytes.data(),
                            group_bytes.size() * sizeof(HubGroup), groups_crc);
      }
    }
    Shard shard;
    shard.begin = entry.vertex_begin;
    shard.end = entry.vertex_end;
    shard.path = path;
    if (mapped.info.compressed) {
      shard.compressed = std::move(mapped.compressed);
      shard.is_compressed = true;
    } else {
      shard.labels = std::move(mapped.labels);
    }
    shards.push_back(std::move(shard));
    ++healthy;
  }
  if (healthy == 0) {
    return Status::Unavailable(
        "manifest " + manifest_path +
        ": every shard failed to load; refusing to serve an index that can "
        "answer nothing");
  }
  if (load.verify_checksums && fingerprint_complete) {
    const uint64_t fingerprint =
        (uint64_t{groups_crc} << 32) | entries_crc;
    if (fingerprint != manifest.fingerprint) {
      return Status::Corruption(
          "manifest " + manifest_path +
          ": shard contents do not match the recorded index fingerprint");
    }
  }
  Result<ShardedQueryEngine> assembled =
      Assemble(std::move(shards), manifest.num_vertices_total, options,
               manifest.fingerprint);
  if (!assembled.ok()) return assembled.status();
  ShardedQueryEngine engine = std::move(assembled).value();
  engine.fallback_graph_ = degraded.fallback_graph;
  return engine;
}

std::vector<ShardBalanceEntry> ShardedQueryEngine::ShardBalance() const {
  std::vector<ShardBalanceEntry> balance;
  balance.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    balance.push_back(ShardBalanceEntry{
        shard.begin, shard.end,
        shard.is_compressed ? shard.compressed.TotalEntries()
                            : shard.labels.TotalEntries(),
        shard.is_compressed ? shard.compressed.MemoryBytes()
                            : shard.labels.MemoryBytes(),
        shard.quarantined});
  }
  return balance;
}

FlatLabelView ShardedQueryEngine::ViewOf(Vertex v,
                                         DecodedLabel* scratch) const {
  // Last shard whose begin <= v; ranges tile [0, n), so this shard holds v.
  size_t i = static_cast<size_t>(
      std::upper_bound(begins_.begin(), begins_.end(), v) - begins_.begin() -
      1);
  const Shard& shard = shards_[i];
  const Vertex local = static_cast<Vertex>(v - shard.begin);
  if (!shard.is_compressed) return shard.labels.View(local);
  if (decode_cache_ != nullptr) {
    // Keyed by GLOBAL vertex id, so one cache serves every shard.
    if (!decode_cache_->GetOrDecode(shard.compressed, local, v, scratch)) {
      scratch->Clear();
    }
  } else if (!shard.compressed.DecodeVertex(local, scratch).ok()) {
    scratch->Clear();
  }
  return scratch->View();
}

bool ShardedQueryEngine::Unavailable(Vertex v) const {
  size_t i = static_cast<size_t>(
      std::upper_bound(begins_.begin(), begins_.end(), v) - begins_.begin() -
      1);
  return shards_[i].quarantined;
}

Distance ShardedQueryEngine::QueryNoStats(Vertex s, Vertex t,
                                          Quality w) const {
  if (s >= num_vertices_ || t >= num_vertices_) return kInfDistance;
  if (s == t) return 0;
  // Two scratch labels per thread: each endpoint's view must survive the
  // other's decode (flat shards never touch them).
  thread_local DecodedLabel ls, lt;
  if (cache_) {
    return cache_->GetOrCompute(s, t, w, cache_fingerprint_, [&] {
      return QueryFlatMergeWithInterval(ViewOf(s, &ls), ViewOf(t, &lt), w);
    });
  }
  return QueryFlat(ViewOf(s, &ls), ViewOf(t, &lt), w, options_.impl);
}

ServeOutcome ShardedQueryEngine::QueryExNoStats(Vertex s, Vertex t,
                                                Quality w,
                                                Distance* out) const {
  // Healthy engines never branch into the degraded path: the 2-hop query
  // stays exactly the pre-quarantine code, bit for bit.
  if (num_quarantined_ > 0 && s < num_vertices_ && t < num_vertices_ &&
      s != t && (Unavailable(s) || Unavailable(t))) {
    if (fallback_graph_ == nullptr) {
      *out = kInfDistance;
      return ServeOutcome::kShardUnavailable;
    }
    // Exact online fallback at graph-search cost. Not cached: the cache is
    // bound to the index fingerprint and fallback answers equal the
    // index's, but keeping the degraded path out of the cache makes its
    // behavior trivially reasoned about.
    *out = ConstrainedDijkstraUnit(*fallback_graph_, s, t, w);
    return ServeOutcome::kOk;
  }
  *out = QueryNoStats(s, t, w);
  return ServeOutcome::kOk;
}

QueryEngineStats ShardedQueryEngine::stats() const {
  QueryEngineStats stats =
      WithDecodeStats(WithCacheStats(stats_->Aggregate(), cache_.get()),
                      decode_cache_.get());
  stats.compressed = num_compressed_ > 0 ? 1 : 0;
  for (const Shard& shard : shards_) {
    if (shard.quarantined) continue;
    if (shard.is_compressed) {
      stats.label_bytes += shard.compressed.MemoryBytes();
      stats.uncompressed_label_bytes += shard.compressed.UncompressedBytes();
    } else {
      const size_t bytes = shard.labels.MemoryBytes();
      stats.label_bytes += bytes;
      stats.uncompressed_label_bytes += bytes;
    }
  }
  return stats;
}

Distance ShardedQueryEngine::Query(Vertex s, Vertex t, Quality w) const {
  Distance d = kInfDistance;
  QueryEx(s, t, w, &d);
  return d;
}

ServeOutcome ShardedQueryEngine::QueryEx(Vertex s, Vertex t, Quality w,
                                         Distance* out) const {
  ServeOutcome outcome = QueryExNoStats(s, t, w, out);
  if (outcome == ServeOutcome::kOk) {
    stats_->RecordSingle(*out);
  } else {
    stats_->RecordUnavailable(1);
  }
  return outcome;
}

std::vector<Distance> ShardedQueryEngine::Batch(
    const std::vector<BatchQueryInput>& queries) const {
  if (num_quarantined_ > 0 && fallback_graph_ == nullptr) {
    // Degraded without a fallback: route through BatchEx so refusals are
    // counted; legacy callers see kInfDistance for the refused batch.
    std::vector<Distance> results;
    if (BatchEx(queries, &results) != ServeOutcome::kOk) {
      results.assign(queries.size(), kInfDistance);
    }
    return results;
  }
  return RunServeBatch(pool_.get(), num_threads(), options_.min_chunk,
                       *stats_, queries, [&](const BatchQueryInput& q) {
                         Distance d = kInfDistance;
                         QueryExNoStats(q.s, q.t, q.w, &d);
                         return d;
                       });
}

ServeOutcome ShardedQueryEngine::BatchEx(
    const std::vector<BatchQueryInput>& queries,
    std::vector<Distance>* out) const {
  out->clear();
  if (num_quarantined_ > 0 && fallback_graph_ == nullptr) {
    // Refuse the whole batch if any query needs a quarantined shard: a
    // distance vector with silently-wrong entries is worse than a clean
    // refusal the client can split or reroute.
    for (const BatchQueryInput& q : queries) {
      const bool in_range = q.s < num_vertices_ && q.t < num_vertices_;
      if (in_range && q.s != q.t && (Unavailable(q.s) || Unavailable(q.t))) {
        stats_->RecordUnavailable(queries.size());
        return ServeOutcome::kShardUnavailable;
      }
    }
  }
  *out = RunServeBatch(pool_.get(), num_threads(), options_.min_chunk,
                       *stats_, queries, [&](const BatchQueryInput& q) {
                         Distance d = kInfDistance;
                         QueryExNoStats(q.s, q.t, q.w, &d);
                         return d;
                       });
  return ServeOutcome::kOk;
}

ServeOutcome ShardedQueryEngine::TopKEx(
    Vertex source, std::span<const Vertex> candidates, Quality w, size_t k,
    std::vector<RankedCandidate>* out) const {
  out->clear();
  if (num_quarantined_ > 0) {
    // Whole-request refusal, mirroring BatchEx: the reply has no per-
    // candidate error channel, and a ranking silently missing candidates
    // is worse than a clean refusal the client can route around.
    bool touched = source < num_vertices_ && Unavailable(source);
    for (size_t i = 0; !touched && i < candidates.size(); ++i) {
      const Vertex c = candidates[i];
      touched = c < num_vertices_ && c != source && Unavailable(c);
    }
    if (touched) {
      stats_->RecordUnavailable(candidates.size());
      return ServeOutcome::kShardUnavailable;
    }
  }
  // Ring of two scratch labels: the top-k kernel holds at most one
  // candidate's span alongside the source scan.
  thread_local DecodedLabel ring[2];
  thread_local unsigned next = 0;
  *out = TopKClosestOverLabels(
      num_vertices_, source, candidates, w, k, [&](Vertex v) {
        return ViewOf(v, &ring[next++ & 1]).entries;
      });
  stats_->RecordMany(candidates.size(), out->size());
  return ServeOutcome::kOk;
}

ServeOutcome ShardedQueryEngine::ProfileEx(
    Vertex s, Vertex t, std::span<const Quality> thresholds,
    std::vector<ProfilePoint>* out) const {
  out->clear();
  const bool in_range = s < num_vertices_ && t < num_vertices_;
  if (num_quarantined_ > 0 && in_range && s != t &&
      (Unavailable(s) || Unavailable(t))) {
    stats_->RecordUnavailable(thresholds.size());
    return ServeOutcome::kShardUnavailable;
  }
  thread_local DecodedLabel ls, lt;
  *out = QualityProfileOverIntervals(
      thresholds, [&](Quality w) -> IntervalQueryResult {
        // Degenerate pairs answer with the everywhere-constant interval,
        // the same guards WcIndex::QueryWithInterval applies.
        if (!in_range) return IntervalQueryResult{};
        if (s == t) return IntervalQueryResult{0, -kInfQuality, kInfQuality};
        return QueryFlatMergeWithInterval(ViewOf(s, &ls), ViewOf(t, &lt), w);
      });
  uint64_t reachable = 0;
  for (const ProfilePoint& p : *out) {
    if (p.dist != kInfDistance) ++reachable;
  }
  stats_->RecordMany(thresholds.size(), reachable);
  return ServeOutcome::kOk;
}

ServeOutcome ShardedQueryEngine::PathEx(Vertex s, Vertex t, Quality w,
                                        std::vector<Vertex>* out) const {
  out->clear();
  if (options_.graph == nullptr) return ServeOutcome::kNotSupported;
  const QualityGraph& g = *options_.graph;
  if (s >= num_vertices_ || t >= num_vertices_) {
    stats_->RecordSingle(kInfDistance);
    return ServeOutcome::kOk;
  }
  if (num_quarantined_ > 0 && (Unavailable(s) || Unavailable(t))) {
    stats_->RecordUnavailable(1);
    return ServeOutcome::kShardUnavailable;
  }
  if (s == t) {
    out->push_back(s);
    stats_->RecordSingle(0);
    return ServeOutcome::kOk;
  }
  const Distance total = QueryNoStats(s, t, w);
  stats_->RecordSingle(total);
  if (total == kInfDistance) return ServeOutcome::kOk;
  // Greedy index-guided stepping: at each vertex take any constraint-
  // satisfying neighbor exactly one step closer to t. Every step is a
  // fallback step — shard slices carry no parent quads.
  out->push_back(s);
  Vertex cur = s;
  Distance remaining = total;
  size_t steps = 0;
  while (remaining > 0) {
    Vertex next = kNullVertex;
    bool skipped_quarantined = false;
    for (const Arc& a : g.Neighbors(cur)) {
      if (a.quality < w) continue;
      if (a.to >= num_vertices_) continue;
      if (num_quarantined_ > 0 && Unavailable(a.to)) {
        skipped_quarantined = true;
        continue;
      }
      if (QueryNoStats(a.to, t, w) == remaining - 1) {
        next = a.to;
        break;
      }
    }
    ++steps;
    if (next == kNullVertex) {
      out->clear();
      stats_->RecordPathFallbacks(steps);
      if (skipped_quarantined) {
        // The only viable next hops were quarantined; the graph may still
        // have a path through them.
        stats_->RecordUnavailable(1);
        return ServeOutcome::kShardUnavailable;
      }
      // Index inconsistent with the graph; treat as unreachable.
      return ServeOutcome::kOk;
    }
    out->push_back(next);
    cur = next;
    --remaining;
  }
  stats_->RecordPathFallbacks(steps);
  return ServeOutcome::kOk;
}

}  // namespace wcsd
