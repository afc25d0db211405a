// Request streams for the benchmark's workloads, and the reference
// answers every reply is checked against.
//
// A Traffic is a seeded pool of requests plus their expected answers,
// computed from the benchmark's own heap-built index (WcIndex::Build at one
// thread, never finalized: the label-set backend, not the flat or
// compressed snapshot the server maps). A seeded sample of the reference
// answers is itself cross-checked with ConstrainedDijkstraUnit.

#ifndef WCSD_PERFBENCH_TRAFFIC_H_
#define WCSD_PERFBENCH_TRAFFIC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/wc_index.h"
#include "graph/graph.h"
#include "util/flags.h"
#include "util/types.h"

namespace wcsd::perfbench {

enum class Kind : uint8_t { kDistance, kTopK, kProfile, kPath };

/// How query endpoints are drawn.
enum class Endpoints : uint8_t {
  kUniform,       // s, t uniform over the vertices
  kZipfPairs,     // a pool of hot (s, t) pairs with Zipf(theta) popularity
  kZipfVertices,  // s, t each Zipf(theta) over a seeded vertex permutation
};

struct TrafficOptions {
  Endpoints endpoints = Endpoints::kUniform;
  double theta = 1.0;
  size_t hot_pairs = 0;  // kZipfPairs pool size
  int levels = 5;        // w is drawn fresh and uniform from {1..levels}
  /// Shares of the non-distance families; the rest are distance queries.
  double topk_share = 0.0;
  double profile_share = 0.0;
  double path_share = 0.0;
  size_t topk_candidates = 32;
  uint32_t topk_k = 8;
  size_t pool = 100000;  // requests generated
  /// Seeds which pairs are hot (kZipfPairs) or the vertex permutation
  /// (kZipfVertices): the workload's population, fixed across runs.
  static constexpr uint64_t population_seed = 1;
  /// Seeds the draws from that population, the w of each request and the
  /// family inputs.
  uint64_t seed = 1;
};

/// One request. Families keep their variable-size inputs and expected
/// answers in Traffic's side arrays, addressed by `extra`.
struct Request {
  Kind kind = Kind::kDistance;
  Vertex s = 0;
  Vertex t = 0;
  Quality w = 1;
  uint32_t extra = 0;
  Distance expected = kInfDistance;  // distance (kPath: the path length)
};

struct TopKCase {
  std::vector<Vertex> candidates;
  uint32_t k = 0;
  std::vector<RankedCandidate> expected;
};

struct ProfileCase {
  std::vector<Quality> thresholds;
  std::vector<ProfilePoint> expected;
};

struct Traffic {
  std::vector<Request> requests;
  std::vector<TopKCase> topk;
  std::vector<ProfileCase> profiles;
  /// Indices of the distance requests (the batch phase's stream).
  std::vector<uint32_t> distance_ids;
};

/// Reads --endpoints=uniform|zipf-pairs|zipf-vertices, --theta,
/// --hot-pairs, --levels, --topk-share, --profile-share, --path-share,
/// --pool and --seed.
TrafficOptions TrafficOptionsFromFlags(const Flags& flags);

/// Draws the request pool (inputs only; expected answers unset).
Traffic MakeTraffic(size_t num_vertices, const TrafficOptions& options);

/// Fills every expected answer from `reference` using `threads` threads.
void ComputeExpected(const WcIndex& reference, Traffic* traffic,
                     size_t threads);

/// Compares `samples` seeded distance requests of the reference with
/// ConstrainedDijkstraUnit on `g`. Returns the number of mismatches.
size_t CheckReferenceWithDijkstra(const QualityGraph& g,
                                  const Traffic& traffic, size_t samples,
                                  uint64_t seed);

/// Checks one reply payload (the bytes after the wire header) against the
/// expected answer of `request`. Paths are checked with IsValidWPath plus
/// the length; `g` may only be null when the traffic has no path requests.
bool CheckReply(const Traffic& traffic, const Request& request,
                const QualityGraph* g, std::span<const uint8_t> payload);

/// Appends the wire request frame for `request`.
void AppendRequestFrame(const Traffic& traffic, const Request& request,
                        uint64_t request_id, std::vector<uint8_t>* out);

}  // namespace wcsd::perfbench

#endif  // WCSD_PERFBENCH_TRAFFIC_H_
