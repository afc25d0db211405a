// The traced run: replays a workload's generated inputs in-process through
// each layer's public functions and records a span around every call.
//
//   wcsd_perfbench replay --graph=<edges> --workdir=<dir> --spans=<file>
//       --serve=flat|sharded|compressed [--cache-mb=M]
//       [--decode-cache-mb=M] [--serve-graph] [traffic flags]
//       [--rate=R] [--phase-seconds=1] [--latency-file=<file>]
//
// Spans (id, parent, name, start_ns, end_ns, request) are kept in memory
// and written as tab-separated lines to --spans when the replay ends; the
// counters of each layer are printed as one JSON line on stdout. Layers
// and span names:
//   order      order.make
//   core       core.build, core.topk, core.profile, core.path
//   labeling   labeling.flat.finalize, labeling.snapshot.write,
//              labeling.snapshot.open, labeling.flat.query,
//              labeling.compressed.query
//   serve      serve.engine.query|topk|profile|path, serve.engine.batch
//   net        net.wire.encode, net.wire.parse, net.rtt, loadgen.phase
//   bench      bench.reference, bench.aux_snapshots, bench.server_start

#ifndef WCSD_PERFBENCH_REPLAY_H_
#define WCSD_PERFBENCH_REPLAY_H_

#include "util/flags.h"

namespace wcsd::perfbench {

int RunReplay(const Flags& flags);

}  // namespace wcsd::perfbench

#endif  // WCSD_PERFBENCH_REPLAY_H_
