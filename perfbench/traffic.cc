#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "core/path_index.h"
#include "net/wire.h"
#include "search/constrained_dijkstra.h"
#include "util/random.h"

namespace wcsd::perfbench {
namespace {

/// Inverse-CDF sampler of ranks 0..n-1 with P(k) proportional to
/// 1/(k+1)^theta.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t Sample(Rng* rng) const {
    const double u = rng->NextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

template <typename T>
bool ReadCountedArray(std::span<const uint8_t> payload, std::vector<T>* out) {
  uint32_t count = 0;
  if (payload.size() < sizeof(count)) return false;
  std::memcpy(&count, payload.data(), sizeof(count));
  if (payload.size() != sizeof(count) + size_t{count} * sizeof(T)) {
    return false;
  }
  out->resize(count);
  if (count > 0) {
    std::memcpy(out->data(), payload.data() + sizeof(count),
                size_t{count} * sizeof(T));
  }
  return true;
}

}  // namespace

TrafficOptions TrafficOptionsFromFlags(const Flags& flags) {
  TrafficOptions o;
  const std::string endpoints = flags.GetString("endpoints", "uniform");
  if (endpoints == "zipf-pairs") o.endpoints = Endpoints::kZipfPairs;
  if (endpoints == "zipf-vertices") o.endpoints = Endpoints::kZipfVertices;
  o.theta = flags.GetDouble("theta", 1.0);
  o.hot_pairs = static_cast<size_t>(flags.GetInt("hot-pairs", 0));
  o.levels = static_cast<int>(flags.GetInt("levels", 5));
  o.topk_share = flags.GetDouble("topk-share", 0.0);
  o.profile_share = flags.GetDouble("profile-share", 0.0);
  o.path_share = flags.GetDouble("path-share", 0.0);
  o.pool = static_cast<size_t>(flags.GetInt("pool", 100000));
  o.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  return o;
}

Traffic MakeTraffic(size_t num_vertices, const TrafficOptions& options) {
  Traffic traffic;
  Rng rng(options.seed);
  const size_t n = num_vertices;
  auto uniform_vertex = [&] { return static_cast<Vertex>(rng.NextBounded(n)); };

  std::vector<std::pair<Vertex, Vertex>> hot;
  std::vector<Vertex> permutation;
  std::unique_ptr<ZipfSampler> zipf;
  Rng population(options.population_seed);
  if (options.endpoints == Endpoints::kZipfPairs) {
    hot.reserve(options.hot_pairs);
    while (hot.size() < options.hot_pairs) {
      Vertex s = static_cast<Vertex>(population.NextBounded(n));
      Vertex t = static_cast<Vertex>(population.NextBounded(n));
      if (s != t) hot.emplace_back(s, t);
    }
    zipf = std::make_unique<ZipfSampler>(hot.size(), options.theta);
  } else if (options.endpoints == Endpoints::kZipfVertices) {
    permutation.resize(n);
    for (size_t v = 0; v < n; ++v) permutation[v] = static_cast<Vertex>(v);
    population.Shuffle(&permutation);
    zipf = std::make_unique<ZipfSampler>(n, options.theta);
  }

  traffic.requests.reserve(options.pool);
  for (size_t i = 0; i < options.pool; ++i) {
    Request r;
    switch (options.endpoints) {
      case Endpoints::kUniform:
        r.s = uniform_vertex();
        r.t = uniform_vertex();
        break;
      case Endpoints::kZipfPairs: {
        auto [s, t] = hot[zipf->Sample(&rng)];
        r.s = s;
        r.t = t;
        break;
      }
      case Endpoints::kZipfVertices:
        r.s = permutation[zipf->Sample(&rng)];
        r.t = permutation[zipf->Sample(&rng)];
        break;
    }
    r.w = static_cast<Quality>(rng.NextInRange(1, options.levels));
    const double u = rng.NextDouble();
    if (u < options.topk_share) {
      r.kind = Kind::kTopK;
      TopKCase c;
      c.k = options.topk_k;
      c.candidates.push_back(r.t);
      while (c.candidates.size() < options.topk_candidates) {
        c.candidates.push_back(uniform_vertex());
      }
      r.extra = static_cast<uint32_t>(traffic.topk.size());
      traffic.topk.push_back(std::move(c));
    } else if (u < options.topk_share + options.profile_share) {
      r.kind = Kind::kProfile;
      ProfileCase c;
      for (int level = 1; level <= options.levels; ++level) {
        c.thresholds.push_back(static_cast<Quality>(level));
      }
      r.extra = static_cast<uint32_t>(traffic.profiles.size());
      traffic.profiles.push_back(std::move(c));
    } else if (u < options.topk_share + options.profile_share +
                       options.path_share) {
      r.kind = Kind::kPath;
    } else {
      traffic.distance_ids.push_back(
          static_cast<uint32_t>(traffic.requests.size()));
    }
    traffic.requests.push_back(r);
  }
  return traffic;
}

void ComputeExpected(const WcIndex& reference, Traffic* traffic,
                     size_t threads) {
  threads = std::max<size_t>(1, threads);
  auto work = [&](size_t part) {
    for (size_t i = part; i < traffic->requests.size(); i += threads) {
      Request& r = traffic->requests[i];
      switch (r.kind) {
        case Kind::kDistance:
        case Kind::kPath:
          r.expected = reference.Query(r.s, r.t, r.w);
          break;
        case Kind::kTopK: {
          TopKCase& c = traffic->topk[r.extra];
          c.expected = TopKClosest(reference, r.s, c.candidates, r.w, c.k);
          break;
        }
        case Kind::kProfile: {
          ProfileCase& c = traffic->profiles[r.extra];
          c.expected = QualityProfile(reference, r.s, r.t, c.thresholds);
          break;
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t part = 1; part < threads; ++part) pool.emplace_back(work, part);
  work(0);
  for (std::thread& t : pool) t.join();
}

size_t CheckReferenceWithDijkstra(const QualityGraph& g,
                                  const Traffic& traffic, size_t samples,
                                  uint64_t seed) {
  if (traffic.distance_ids.empty()) return 0;
  Rng rng(seed ^ 0x5eed5eedULL);
  size_t mismatches = 0;
  for (size_t i = 0; i < samples; ++i) {
    const Request& r = traffic.requests[traffic.distance_ids[rng.NextBounded(
        traffic.distance_ids.size())]];
    if (ConstrainedDijkstraUnit(g, r.s, r.t, r.w) != r.expected) ++mismatches;
  }
  return mismatches;
}

bool CheckReply(const Traffic& traffic, const Request& request,
                const QualityGraph* g, std::span<const uint8_t> payload) {
  switch (request.kind) {
    case Kind::kDistance: {
      uint32_t dist = 0;
      if (payload.size() != sizeof(dist)) return false;
      std::memcpy(&dist, payload.data(), sizeof(dist));
      return dist == request.expected;
    }
    case Kind::kTopK: {
      std::vector<RankedCandidate> got;
      if (!ReadCountedArray(payload, &got)) return false;
      const auto& want = traffic.topk[request.extra].expected;
      if (got.size() != want.size()) return false;
      for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].vertex != want[i].vertex || got[i].dist != want[i].dist) {
          return false;
        }
      }
      return true;
    }
    case Kind::kProfile: {
      std::vector<ProfilePoint> got;
      if (!ReadCountedArray(payload, &got)) return false;
      const auto& want = traffic.profiles[request.extra].expected;
      if (got.size() != want.size()) return false;
      for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].quality != want[i].quality || got[i].dist != want[i].dist) {
          return false;
        }
      }
      return true;
    }
    case Kind::kPath: {
      std::vector<Vertex> path;
      if (!ReadCountedArray(payload, &path)) return false;
      if (request.expected == kInfDistance) return path.empty();
      return g != nullptr && path.size() == size_t{request.expected} + 1 &&
             path.front() == request.s && path.back() == request.t &&
             IsValidWPath(*g, path, request.w);
    }
  }
  return false;
}

void AppendRequestFrame(const Traffic& traffic, const Request& request,
                        uint64_t request_id, std::vector<uint8_t>* out) {
  switch (request.kind) {
    case Kind::kDistance:
      net::AppendQueryRequest(out, request_id, request.s, request.t,
                              request.w);
      break;
    case Kind::kTopK: {
      const TopKCase& c = traffic.topk[request.extra];
      net::AppendTopKRequest(out, request_id, request.s, c.candidates,
                             request.w, c.k);
      break;
    }
    case Kind::kProfile:
      net::AppendProfileRequest(out, request_id, request.s, request.t,
                                traffic.profiles[request.extra].thresholds);
      break;
    case Kind::kPath:
      net::AppendPathRequest(out, request_id, request.s, request.t,
                             request.w);
      break;
  }
}

}  // namespace wcsd::perfbench
