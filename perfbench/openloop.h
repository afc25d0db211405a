// The load generator: an open-loop request schedule over raw wire frames,
// and a closed-loop batch load.
//
// Open loop: each generator thread owns its connections and a seeded
// Poisson schedule; a request is queued for sending at its due time no
// matter how many replies are outstanding, and its latency runs from the
// due time to the moment its reply was read. How late the generator
// queued each request (its own lateness, separate from the server's
// backpressure) is recorded too, so a run whose generator fell behind can
// be flagged instead of reported.

#ifndef WCSD_PERFBENCH_OPENLOOP_H_
#define WCSD_PERFBENCH_OPENLOOP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "traffic.h"

namespace wcsd::perfbench {

/// The generator's shape: threads and connections in total stay within the
/// host's 4 cores, and the connections are spread over the server's
/// reactors.
inline constexpr size_t kGeneratorThreads = 2;
inline constexpr size_t kConnections = 4;
inline constexpr size_t kServerReactors = 2;

/// Nanoseconds on the monotonic clock.
uint64_t NowNs();

/// Connects `count` sockets to 127.0.0.1:port. When `server_pid` > 0 the
/// connections are spread evenly over the server's threads that serve
/// them: each new connection is probed with Health round trips, the
/// server thread whose run time grew most (from /proc/<pid>/task/*/sched)
/// is taken as its owner, and connections landing on an already-full
/// owner are closed and retried. `skip_tid` (the caller's own thread when
/// the server is in-process) is never taken as an owner. Returns the
/// connected fds; empty on failure.
std::vector<int> ConnectBalanced(uint16_t port, size_t count, int server_pid,
                                 size_t owners, int skip_tid);

void CloseAll(std::vector<int>* fds);

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;    // wrong + refused + timed out
  uint64_t wrong = 0;     // replies that did not match the reference
  uint64_t refused = 0;   // error frames (kOverloaded, kDeadlineExceeded...)
  uint64_t timeouts = 0;  // no reply within the drain window
  /// Requests due before the schedule's end but unanswered at that moment.
  uint64_t outstanding_at_end = 0;
  double seconds = 0;     // scheduled length
  double cpu_s = 0;       // generator threads' CPU time
  std::vector<float> latency_us;  // per request; +inf when failed
  std::vector<float> late_us;     // per request: queued minus due
  std::vector<float> due_us;      // per request: due time after the start
};

/// Writes latency_us, late_us and due_us as three float32 arrays of
/// `attempted` values each.
bool WritePhase(const std::string& path, const PhaseResult& r);

/// Runs one open-loop phase at `rate` requests/s for `seconds`, taking
/// requests from `traffic` starting at *cursor (wrapping; advanced past
/// the requests used). `conns` is split evenly over `threads` threads.
PhaseResult RunOpenLoop(const std::vector<int>& conns, size_t threads,
                        const Traffic& traffic, const QualityGraph* graph,
                        size_t* cursor, double rate, double seconds,
                        uint64_t seed);

struct BatchResult {
  uint64_t queries = 0;
  uint64_t failed = 0;
  double seconds = 0;
};

/// Closed loop: each connection keeps one kBatchQuery frame of
/// `batch_size` distance requests in flight until `seconds` have passed.
BatchResult RunBatch(const std::vector<int>& conns, size_t threads,
                     const Traffic& traffic, size_t* cursor,
                     size_t batch_size, double seconds);

}  // namespace wcsd::perfbench

#endif  // WCSD_PERFBENCH_OPENLOOP_H_
