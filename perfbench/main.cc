// wcsd_perfbench — the benchmark's load generator and traced replay.
//
//   wcsd_perfbench drive --graph=<edges> --port=P --server-pid=PID
//       [traffic flags, see traffic.h]
//     Builds the reference index, draws the request pool, connects to a
//     running `wcsd_cli serve --listen` and then takes one command per
//     stdin line, answering each with one JSON line on stdout:
//       open <rate> <seconds> <latency-file>   one open-loop phase
//       batch <frame-size> <seconds>           closed-loop batch frames
//       stats                                  the server's wire Stats
//       quit
//     The latency file holds three float32 arrays of `attempted` values,
//     all in microseconds: latency from the due time (+inf when failed),
//     the generator's lateness, and the due time after the phase start.
//
//   wcsd_perfbench health --port=P
//     Retries until the server on 127.0.0.1:P answers a Health frame;
//     exits 0 then, 1 after kHealthTimeoutMs.
//
//   wcsd_perfbench replay ...   the traced in-process replay (replay.h)

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "core/wc_index.h"
#include "graph/io.h"
#include "net/client.h"
#include "openloop.h"
#include "replay.h"
#include "traffic.h"
#include "util/flags.h"
#include "util/timer.h"

namespace wcsd::perfbench {
namespace {

/// The server's wire Stats counters the self-checks read, as one JSON
/// object.
std::string StatsJson(const WireStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cache_hits\": %llu, \"cache_misses\": %llu, "
                "\"decode_hits\": %llu, \"decode_misses\": %llu, "
                "\"cold_pageins\": %llu, \"label_bytes\": %llu}",
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.cache_misses),
                static_cast<unsigned long long>(s.decode_hits),
                static_cast<unsigned long long>(s.decode_misses),
                static_cast<unsigned long long>(s.cold_pageins),
                static_cast<unsigned long long>(s.label_bytes));
  return buf;
}

int Drive(const Flags& flags) {
  auto graph = ReadEdgeListFile(flags.GetString("graph", ""));
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const QualityGraph& g = graph.value();
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const int server_pid = static_cast<int>(flags.GetInt("server-pid", 0));
  const TrafficOptions options = TrafficOptionsFromFlags(flags);

  Timer timer;
  WcIndexOptions build = WcIndexOptions::Plus();
  build.num_threads = 1;  // the sequential Algorithm 3 loop, never finalized
  const WcIndex reference = WcIndex::Build(g, build);
  const double reference_s = timer.Seconds();
  Traffic traffic = MakeTraffic(g.NumVertices(), options);
  ComputeExpected(reference, &traffic, kGeneratorThreads);
  const size_t mismatches =
      CheckReferenceWithDijkstra(g, traffic, /*samples=*/200, options.seed);
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "error: reference index disagrees with Dijkstra on %zu "
                 "sampled queries\n",
                 mismatches);
    return 3;
  }
  std::vector<int> conns = ConnectBalanced(port, kConnections, server_pid,
                                           kServerReactors, /*skip_tid=*/-1);
  auto stats_client = WcClient::Connect("127.0.0.1", port);
  if (conns.empty() || !stats_client.ok()) {
    std::fprintf(stderr, "error: cannot connect to port %u\n", port);
    return 1;
  }
  std::printf("{\"ready\": true, \"reference_s\": %.3f, "
              "\"reference_entries\": %zu, \"pool\": %zu}\n",
              reference_s, reference.TotalEntries(), traffic.requests.size());
  std::fflush(stdout);

  // One cursor walks the pool for every phase, so no request repeats
  // until the pool wraps.
  size_t cursor = 0;
  uint64_t phase = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "open") {
      double rate = 0, seconds = 0;
      std::string path;
      in >> rate >> seconds >> path;
      PhaseResult r =
          RunOpenLoop(conns, kGeneratorThreads, traffic, &g, &cursor, rate,
                      seconds, options.seed * 131 + ++phase);
      if (!WritePhase(path, r)) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf(
          "{\"attempted\": %llu, \"failed\": %llu, \"wrong\": %llu, "
          "\"refused\": %llu, \"timeouts\": %llu, "
          "\"outstanding_at_end\": %llu, \"cpu_s\": %.6f, "
          "\"seconds\": %.6f}\n",
          static_cast<unsigned long long>(r.attempted),
          static_cast<unsigned long long>(r.failed),
          static_cast<unsigned long long>(r.wrong),
          static_cast<unsigned long long>(r.refused),
          static_cast<unsigned long long>(r.timeouts),
          static_cast<unsigned long long>(r.outstanding_at_end), r.cpu_s,
          r.seconds);
    } else if (cmd == "batch") {
      size_t size = 512;
      double seconds = 0;
      in >> size >> seconds;
      BatchResult r =
          RunBatch(conns, kGeneratorThreads, traffic, &cursor, size, seconds);
      std::printf("{\"queries\": %llu, \"failed\": %llu, \"seconds\": %.6f}\n",
                  static_cast<unsigned long long>(r.queries),
                  static_cast<unsigned long long>(r.failed), r.seconds);
    } else if (cmd == "stats") {
      auto stats = stats_client.value().Stats();
      std::printf("%s\n", stats.ok() ? StatsJson(stats.value()).c_str() : "{}");
    } else if (cmd == "quit") {
      break;
    } else {
      std::fprintf(stderr, "error: unknown command: %s\n", line.c_str());
      return 1;
    }
    std::fflush(stdout);
  }
  CloseAll(&conns);
  return 0;
}

constexpr uint64_t kHealthTimeoutMs = 60000;

int Health(const Flags& flags) {
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 0));
  const uint64_t deadline = NowNs() + kHealthTimeoutMs * 1'000'000ULL;
  while (NowNs() < deadline) {
    auto client = WcClient::Connect("127.0.0.1", port, 1000);
    if (client.ok() && client.value().Health().ok()) return 0;
    usleep(2000);
  }
  std::fprintf(stderr, "error: no Health reply from port %u\n", port);
  return 1;
}

}  // namespace
}  // namespace wcsd::perfbench

int main(int argc, char** argv) {
  using namespace wcsd;
  if (argc < 2) {
    std::fprintf(stderr, "usage: wcsd_perfbench drive|health|replay [--flags]\n");
    return 2;
  }
  Flags flags(argc, argv);
  if (std::strcmp(argv[1], "drive") == 0) return perfbench::Drive(flags);
  if (std::strcmp(argv[1], "health") == 0) return perfbench::Health(flags);
  if (std::strcmp(argv[1], "replay") == 0) return perfbench::RunReplay(flags);
  std::fprintf(stderr, "usage: wcsd_perfbench drive|health|replay [--flags]\n");
  return 2;
}
