#!/usr/bin/env python3
"""End-to-end WCSD benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds this
package (perfbench/CMakeLists.txt: the library, wcsd_cli and the
benchmark's wcsd_perfbench) into .bench_build/; all temporary files go under
.bench_build/run-*/ and are removed at the end.

--trace 0 takes the operator's path: `wcsd_cli generate` makes the
workload's graph, then (three times, median reported as setup_s) `wcsd_cli
build --threads=0`, `snapshot` or `shard`, and `serve --listen` as its own
process, until the first Health reply. One load-generator process
(wcsd_perfbench drive) then drives the last server over loopback with open
loop traffic drawn from --seed at the workload's fixed rates, searches
slo_qps on a fixed rate ladder, and measures closed-loop batch throughput.
Every reply is checked against the benchmark's own reference index.

--trace 1 replays the same generated inputs in-process through each
layer's public functions (wcsd_perfbench replay), writes the spans, and
prints the per-layer self-time table and per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

MIB = 1024.0 * 1024.0
L2_BYTES_PER_CORE = 2 * 1024 * 1024
SETUP_REPS = 3
GRAPH_SEED = 1

ROAD_GRAPH = ["--kind=road", "--n=10000", "--levels=5", "--arterial_spacing=8"]

# Rates (q/s), the latency limit on the windowed p50 (us) and the base of
# the slo ladder are absolute and fixed per workload, so a parent and a
# change are loaded identically. low/high sit at 12-35% of slo_qps as first
# measured: below the rates where the road server's median latency stops
# being steady.
WORKLOADS = {
    "road-uniform": {
        "graph": ROAD_GRAPH,
        "index": "flat",
        "serve": ["--cache-mb=1"],
        "traffic": ["--endpoints=uniform", "--levels=5"],
        "low": 40000, "high": 110000, "limit_us": 200,
        "ladder_base": 60000,
    },
    "social-zipf-mixed": {
        "graph": ["--kind=social", "--n=5000", "--levels=3",
                  "--edges_per_vertex=10"],
        "index": "sharded",
        "serve": ["--cache-mb=1", "--graph={graph}"],
        "traffic": ["--endpoints=zipf-pairs", "--theta=1.0",
                    "--hot-pairs=1000000", "--levels=3", "--topk-share=0.05",
                    "--profile-share=0.05", "--path-share=0.05"],
        "low": 15000, "high": 35000, "limit_us": 100,
        "ladder_base": 15000,
    },
    "road-cold": {
        "graph": ROAD_GRAPH,
        "index": "compressed",
        "serve": ["--cold-tier", "--decode-cache-mb=2"],
        "traffic": ["--endpoints=zipf-vertices", "--theta=0.8", "--levels=5"],
        "low": 30000, "high": 90000, "limit_us": 200,
        "ladder_base": 50000,
    },
}
POOL = 1500000
# A phase whose generator queued half its requests more than this late is
# invalid: the generator, not the server, set its latencies.
LATE_LIMIT_US = 100.0

# slo probes bisect a ladder of 2**SLO_PROBES rates, ladder_base * 1.08**k
# (a factor of 10.9 from bottom to top).
LADDER_STEP = 1.08

# Shares of --seconds per phase. A run is a warm-up (one low-rate block
# and one batch block, so the caches fill), then ROUNDS rounds of (low
# block, high block, batch block, slo probe); rounds after the slo search
# has settled (at most SLO_PROBES probes) skip the probe.
PHASES = {"block": 0.025, "batch": 0.02, "rung": 0.06}
ROUNDS = 8
SLO_PROBES = 5
# On a shared virtual machine the hypervisor takes whole stretches of CPU
# time from the guest ("steal" in /proc/stat); a block that lost a few
# percent of its CPUs' time shows latencies several times the usual. The
# fixed-rate and batch metrics keep the KEEP_BLOCKS of the ROUNDS blocks
# that lost the least, and a probe that lost more than STEAL_LIMIT of its
# CPUs' time is run again, at most REPROBES times a run.
KEEP_BLOCKS = 5
STEAL_LIMIT = 0.02
REPROBES = 3
BATCH_FRAME = 512


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_split():
    """(server cpus, generator cpus); None when there are too few to pin."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    return set(cpus[:2]), set(cpus[2:4])


def pinned(cpus):
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


class Bench:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.build_dir = os.path.join(root, ".bench_build", "cmake")
        self.work = os.path.join(
            root, ".bench_build",
            "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        self.procs = []
        self.server_cpus, self.gen_cpus = cpu_split()

    # ------------------------------------------------------------ plumbing
    def run(self, cmd):
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        if res.returncode != 0:
            raise BenchError("%s failed (%d): %s" % (
                " ".join(cmd[:2]), res.returncode, res.stderr.strip()[-800:]))
        return res.stdout

    def build(self):
        src = os.path.join(self.root, "perfbench")
        if not os.path.isfile(os.path.join(self.root, "CMakeLists.txt")):
            raise BenchError("no repository sources next to perfbench/")
        if not os.path.isfile(os.path.join(self.build_dir, "CMakeCache.txt")):
            self.run(["cmake", "-S", src, "-B", self.build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
        self.run(["cmake", "--build", self.build_dir, "-j",
                  str(len(os.sched_getaffinity(0))), "--target", "wcsd_cli",
                  "wcsd_perfbench"])
        self.cli = os.path.join(self.build_dir, "wcsd", "wcsd_cli")
        self.pb = os.path.join(self.build_dir, "wcsd_perfbench")

    def path(self, name):
        return os.path.join(self.work, name)

    def stop(self, proc, sig=signal.SIGINT):
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.procs:
            self.procs.remove(proc)

    def cleanup(self):
        for proc in list(self.procs):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.procs = []
        shutil.rmtree(self.work, ignore_errors=True)

    def generate_graph(self):
        """The workload's graph, generated from its fixed graph seed: the
        index (and with it setup_s, index_mb and server_rss_mb) must not
        change with --seed, which varies the traffic."""
        graph = self.path("graph.edges")
        self.run([self.cli, "generate", "--out=" + graph,
                  "--seed=%d" % GRAPH_SEED] + self.spec["graph"])
        return graph

    def replay_flags(self):
        """The replay's engine, configured as the served one: the same
        backend, cache budgets and path graph (`serve` flags; a budget left
        out is 0 in both, so --cold-tier always names its decode cache)."""
        serve = self.spec["serve"]
        flags = ["--serve=" + self.spec["index"]]
        flags += [f for f in serve
                  if f.startswith(("--cache-mb=", "--decode-cache-mb="))]
        if "--graph={graph}" in serve:
            flags.append("--serve-graph")
        return flags

    def steal_clock(self):
        """Starts a clock of the steal time of the server's and generator's
        CPUs; calling it returns their stolen share since the start."""
        cpus = (self.server_cpus | self.gen_cpus if self.server_cpus
                else set(os.sched_getaffinity(0)))
        start, t0 = read_steal_ticks(cpus), time.monotonic()

        def stop():
            ticks = read_steal_ticks(cpus) - start
            return harness.steal_share(ticks, time.monotonic() - t0,
                                       len(cpus), os.sysconf("SC_CLK_TCK"))
        return stop

    def traffic_flags(self):
        return self.spec["traffic"] + ["--seed=%d" % self.args.seed]

    # ------------------------------------------------------------ setup
    def setup_once(self, graph, rep):
        """Graph file -> first Health reply. Returns (seconds, server,
        port, served files)."""
        stem = self.path("idx%d" % rep)
        t0 = time.perf_counter()
        self.run([self.cli, "build", "--graph=" + graph,
                  "--index=" + stem + ".wcx", "--threads=0"])
        kind = self.spec["index"]
        if kind == "sharded":
            self.run([self.cli, "shard", "--index=" + stem + ".wcx",
                      "--out=" + stem, "--shards=4"])
            files = [stem + ".shard%d" % k for k in range(4)]
            files.append(stem + ".manifest")
            serve = ["--manifest=" + stem + ".manifest"]
        else:
            snap = stem + ".wcsnap"
            extra = ["--compress"] if kind == "compressed" else []
            self.run([self.cli, "snapshot", "--index=" + stem + ".wcx",
                      "--out=" + snap] + extra)
            files = [snap]
            serve = ["--snapshot=" + snap]
        serve += [f.format(graph=graph) for f in self.spec["serve"]]
        server = subprocess.Popen(
            [self.cli, "serve", "--listen=0", "--reactors=2"] + serve,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=pinned(self.server_cpus))
        self.procs.append(server)
        port = None
        for line in server.stdout:
            if line.startswith("serving ") and " on " in line:
                port = int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])
                break
        if port is None:
            raise BenchError("server did not start: " + server.stderr.read())
        self.run([self.pb, "health", "--port=%d" % port])
        seconds = time.perf_counter() - t0
        os.remove(stem + ".wcx")
        return seconds, server, port, files

    # ------------------------------------------------------------ trace 0
    def end_to_end(self):
        spec = self.spec
        graph = self.generate_graph()
        setups = []
        server = port = files = None
        for rep in range(SETUP_REPS):
            if server is not None:
                self.stop(server)
                for f in files:
                    os.remove(f)
            seconds, server, port, files = self.setup_once(graph, rep)
            setups.append(seconds)
        index_bytes = sum(os.path.getsize(f) for f in files)

        drive = subprocess.Popen(
            [self.pb, "drive", "--graph=" + graph, "--port=%d" % port,
             "--server-pid=%d" % server.pid, "--pool=%d" % POOL] +
            self.traffic_flags(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pinned(self.gen_cpus))
        self.procs.append(drive)

        def command(line):
            drive.stdin.write(line + "\n")
            drive.stdin.flush()
            reply = drive.stdout.readline()
            if not reply:
                raise BenchError("load generator exited during: " + line)
            return json.loads(reply)

        ready = json.loads(drive.stdout.readline() or "{}")
        if not ready.get("ready"):
            raise BenchError("load generator failed to start")
        totals = {"attempted": 0, "failed": 0}
        S = self.args.seconds
        limit = spec["limit_us"]
        late_limit = LATE_LIMIT_US
        phase_no = [0]

        def open_phase(rate, seconds):
            """One open-loop phase; returns its raw arrays, summary and
            steal share."""
            phase_no[0] += 1
            lat_file = self.path("phase%d.lat" % phase_no[0])
            clock = self.steal_clock()
            r = command("open %r %r %s" % (float(rate), seconds, lat_file))
            steal = clock()
            data = read_floats(lat_file)
            n = r["attempted"]
            if len(data) != 3 * n:
                raise BenchError("latency file has %d values, want %d" %
                                 (len(data), 3 * n))
            for key in ("attempted", "failed"):
                totals[key] += r[key]
            phase = (data[:n], data[n:2 * n], data[2 * n:], r)
            summary = harness.summarize_phase(
                phase[0], phase[1], phase[2], r["failed"],
                r["outstanding_at_end"], rate, late_limit)
            log_phase("phase %d, steal %.3f" % (phase_no[0], steal), rate,
                      summary)
            return phase, summary, steal

        # The fixed-rate and batch measurements are cut into blocks spread
        # through the run, one round before each slo probe: a host slowdown
        # that lasts a few seconds then spoils a share of every metric's
        # blocks instead of the whole of one metric, and the least stolen
        # blocks are kept.
        blocks = {"low": [], "high": [], "batch": []}

        def batch_block():
            clock = self.steal_clock()
            b = command("batch %d %r" % (BATCH_FRAME, PHASES["batch"] * S))
            totals["attempted"] += b["queries"]
            totals["failed"] += b["failed"]
            return clock(), b["queries"] / b["seconds"]

        def round_of_blocks():
            for name in ("low", "high"):
                phase, _, steal = open_phase(spec[name],
                                             PHASES["block"] * S)
                blocks[name].append((steal, phase))
            blocks["batch"].append(batch_block())

        reprobes = [REPROBES]

        def probe(rate):
            round_of_blocks()
            while True:
                _, summary, steal = open_phase(rate, PHASES["rung"] * S)
                if steal <= STEAL_LIMIT or reprobes[0] == 0:
                    return summary
                reprobes[0] -= 1
                log("probe lost %.3f of its CPUs' time to steal: again" %
                    steal)

        # Warm-up, not reported.
        open_phase(spec["low"], PHASES["block"] * S)
        batch_block()
        ladder = harness.rate_ladder(spec["ladder_base"], LADDER_STEP,
                                     2 ** SLO_PROBES)
        slo, probes = harness.slo_search(ladder, probe, limit, SLO_PROBES)
        log("slo_qps %.0f from probes %s" % (
            slo, [(round(r), fmt(s["p50_us"]), ok) for r, s, ok in probes]))
        while len(blocks["batch"]) < ROUNDS:
            round_of_blocks()
        fixed = {}
        for name in ("low", "high"):
            kept = harness.least_stolen(blocks[name], KEEP_BLOCKS)
            fixed[name] = merge_blocks(kept, spec[name], late_limit)
            log_phase("%s, all blocks" % name, spec[name], fixed[name])
            if not fixed[name]["valid"]:
                raise BenchError(
                    "generator fell behind its schedule at the %s rate "
                    "(median lateness %.1f us > %.1f us): run invalid" %
                    (name, fixed[name]["late_p50_us"], late_limit))
            if fixed[name]["p50_us"] is None:
                raise BenchError("too few samples for a windowed p50 at the "
                                 "%s rate" % name)
        low, high = fixed["low"], fixed["high"]
        stats = command("stats")
        drive.stdin.write("quit\n")
        drive.stdin.close()
        drive.wait(timeout=30)
        self.procs.remove(drive)
        rss_kb = read_vm_hwm_kb(server.pid)
        self.stop(server, signal.SIGTERM)

        self.self_check(stats)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "index_mb": (index_bytes / MIB, "MiB"),
            "server_rss_mb": (rss_kb / 1024.0, "MiB"),
            "p50_us.low": (low["p50_us"], "us"),
            "p50_us.high": (high["p50_us"], "us"),
            "slo_qps": (slo, "q/s"),
            "batch_qps": (statistics.median(
                harness.least_stolen(blocks["batch"], KEEP_BLOCKS)), "q/s"),
        }
        log("setup reps: %s s; batch blocks (steal, q/s) %s" % (
            ["%.3f" % s for s in setups],
            ["%.3f %.0f" % b for b in blocks["batch"]]))
        return totals, metrics

    def self_check(self, stats):
        """Fails loudly when the mechanism the workload exists to stress did
        not run."""
        name = self.args.workload
        lookups = stats["cache_hits"] + stats["cache_misses"]
        hit = stats["cache_hits"] / lookups if lookups else 0.0
        decodes = stats["decode_hits"] + stats["decode_misses"]
        dhit = stats["decode_hits"] / decodes if decodes else 0.0
        log("self-check: result-cache hit rate %.3f over %d lookups, decode "
            "hit rate %.3f over %d, cold page-ins %d, label bytes %d" % (
                hit, lookups, dhit, decodes, stats["cold_pageins"],
                stats["label_bytes"]))
        problems = []
        if stats["label_bytes"] <= L2_BYTES_PER_CORE:
            problems.append("label bytes %d fit in one core's L2" %
                            stats["label_bytes"])
        if name == "road-uniform" and (lookups == 0 or hit >= 0.05):
            problems.append("result-cache hit rate %.3f, want < 0.05 "
                            "over a nonzero lookup count" % hit)
        if name == "social-zipf-mixed" and not 0.2 <= hit <= 0.9:
            problems.append("result-cache hit rate %.3f outside [0.2, 0.9]" %
                            hit)
        if name == "road-cold":
            if not 0.2 <= dhit <= 0.9:
                problems.append("decode-cache hit rate %.3f outside "
                                "[0.2, 0.9]" % dhit)
            if stats["cold_pageins"] == 0:
                problems.append("no cold page-ins")
        if problems:
            raise BenchError("self-check failed for %s: %s" %
                             (name, "; ".join(problems)))

    # ------------------------------------------------------------ trace 1
    def traced(self):
        spec = self.spec
        graph = self.generate_graph()
        spans_file = self.path("spans.tsv")
        lat_file = self.path("replay.lat")
        out = self.run(
            [self.pb, "replay", "--graph=" + graph, "--workdir=" + self.work,
             "--spans=" + spans_file, "--latency-file=" + lat_file,
             "--rate=%d" % spec["low"], "--phase-seconds=%r" %
             max(0.5, ROUNDS * PHASES["block"] * self.args.seconds)] +
            self.replay_flags() + self.traffic_flags())
        counters = json.loads(out.strip().splitlines()[-1])
        spans = read_spans(spans_file)
        keep = os.path.join(self.root, ".bench_build", "spans-%s-%d.tsv" % (
            self.args.workload, self.args.seed))
        shutil.copyfile(spans_file, keep)
        data = read_floats(lat_file)
        n = counters["phase_attempted"]
        late_p99 = harness.percentile(sorted(data[n:2 * n]), 99.0)
        metrics = per_layer_metrics(spans, counters, late_p99)
        print_table(spans, metrics)
        log("spans written to %s" % keep)
        totals = {"attempted": counters["checked"],
                  "failed": counters["failed"]}
        return totals, metrics


def merge_blocks(phases, rate, late_limit_us):
    """Summarizes the blocks of one fixed rate as one phase. Each block's
    due times are shifted past the previous block's, so no window spans
    two blocks."""
    lat, late, due = [], [], []
    failed = outstanding = 0
    for k, (b_lat, b_late, b_due, raw) in enumerate(phases):
        lat.extend(b_lat)
        late.extend(b_late)
        due.extend(d + k * 1e9 for d in b_due)
        failed += raw["failed"]
        outstanding = max(outstanding, raw["outstanding_at_end"])
    return harness.summarize_phase(lat, late, due, failed, outstanding, rate,
                                   late_limit_us)


def log_phase(label, rate, summary):
    log("%s: rate %g -> n=%d, windowed p50=%s p90=%s us over %d windows; "
        "whole phase p50=%.1f p99=%.1f p%s=%s us; late p50/p99=%.1f/%.1f us; "
        "failed=%d valid=%s backlog=%s" % (
            label, rate, summary["n"], fmt(summary["p50_us"]),
            fmt(summary["p90_us"]), summary["windows"],
            summary["phase_p50_us"], summary["phase_p99_us"],
            summary["top_percentile"], fmt(summary["top_us"]),
            summary["late_p50_us"], summary["late_p99_us"],
            summary["failed"], summary["valid"], summary["backlog"]))


def fmt(value):
    return "-" if value is None else "%.1f" % value


def read_floats(path):
    data = array("f")
    with open(path, "rb") as fh:
        data.frombytes(fh.read())
    return data


def read_steal_ticks(cpus):
    """Steal ticks (the 8th value of a cpuN line of /proc/stat) summed over
    `cpus`."""
    total = 0
    with open("/proc/stat") as fh:
        for line in fh:
            f = line.split()
            if f[0].startswith("cpu") and f[0][3:].isdigit() and \
                    int(f[0][3:]) in cpus:
                total += int(f[8])
    return total


def read_vm_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise BenchError("no VmHWM for the server")


def read_spans(path):
    spans = []
    with open(path) as fh:
        for line in fh:
            sid, parent, name, start, end, req = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end),
                          int(req)))
    return spans


def per_layer_metrics(spans, c, late_p99_us):
    by_name = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, [])]

    def total_s(name):
        return sum(durations(name)) * 1e-9

    def median_ns(name):
        d = durations(name)
        return statistics.median(d) if d else 0.0

    # The round trips and the traced engine pass serve different requests
    # of the same stream (the same mix of families), both with the caches
    # as the stream leaves them.
    engine_all = [d for n in ("serve.engine.query", "serve.engine.topk",
                              "serve.engine.profile", "serve.engine.path")
                  for d in durations(n)]
    rtt = durations("net.rtt")
    lookups = c["cache_hits"] + c["cache_misses"]
    decodes = c["decode_hits"] + c["decode_misses"]
    flat_ns = median_ns("labeling.flat.query")
    engine_ns = median_ns("serve.engine.query")
    m = {
        "order.make_s": (total_s("order.make"), "s"),
        "core.build_s": (total_s("core.build"), "s"),
        "core.build.entries": (c["build_entries"], "count"),
        "core.build.pops": (c["build_pops"], "count"),
        "core.build.pruned_by_query": (c["build_pruned_by_query"], "count"),
        "core.build.pruned_by_memo": (c["build_pruned_by_memo"], "count"),
        "core.build.kept_per_pop": (
            c["build_entries"] / max(1, c["build_pops"]), "ratio"),
        "labeling.snapshot.write_s": (total_s("labeling.snapshot.write"), "s"),
        "labeling.snapshot.open_ms": (
            total_s("labeling.snapshot.open") * 1e3, "ms"),
        "labeling.flat.query_ns": (flat_ns, "ns"),
        "labeling.flat.entries_per_query": (
            c["flat_entries"] / max(1, c["distance_requests"]), "count"),
        "labeling.compressed.query_ns": (
            median_ns("labeling.compressed.query"), "ns"),
        "serve.decode_cache.hit_rate": (
            c["decode_hits"] / decodes if decodes else 0.0, "ratio"),
        "serve.decode_cache.cold_pageins": (c["cold_pageins"], "count"),
        "serve.engine.query_ns": (engine_ns, "ns"),
        "serve.engine.overhead_ns": (engine_ns - flat_ns, "ns"),
        "serve.engine.batch_ns_per_query": (
            total_s("serve.engine.batch") * 1e9 /
            max(1, c["batch_queries"]), "ns"),
        "serve.result_cache.hit_rate": (
            c["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "serve.result_cache.inserts": (c["cache_inserts"], "count"),
        "serve.result_cache.evictions": (c["cache_evictions"], "count"),
        "serve.engine.path_fallbacks": (c["path_fallbacks"], "count"),
        "core.topk_us": (median_ns("core.topk") * 1e-3, "us"),
        "core.profile_us": (median_ns("core.profile") * 1e-3, "us"),
        "core.path_us": (median_ns("core.path") * 1e-3, "us"),
        "net.wire.encode_ns": (median_ns("net.wire.encode"), "ns"),
        "net.wire.parse_ns": (median_ns("net.wire.parse"), "ns"),
        "net.rtt_us": (statistics.median(rtt) * 1e-3, "us"),
        "net.overhead_us": (
            (statistics.median(rtt) - statistics.median(engine_all)) * 1e-3,
            "us"),
        "net.server.overload_rejections": (c["overload_rejections"], "count"),
        "net.server.deadline_rejections": (c["deadline_rejections"], "count"),
        "loadgen.late_p99_us": (late_p99_us, "us"),
        "loadgen.cpu_s": (c["phase_cpu_s"], "s"),
        "trace.overhead_pct": (
            100.0 * (c["traced_ns"] - c["untraced_ns"]) /
            max(1.0, c["untraced_ns"]), "%"),
    }
    selfs = harness.self_times(spans)
    per_layer = {}
    for s in spans:
        layer = harness.layer_of(s[2])
        per_layer[layer] = per_layer.get(layer, 0) + selfs[s[0]]
    for layer in ("order", "core", "labeling", "serve", "net", "loadgen",
                  "bench", "replay"):
        m["self_s." + layer] = (per_layer.get(layer, 0) * 1e-9, "s")
    return m


def print_table(spans, metrics):
    selfs = harness.self_times(spans)
    rows = {}
    for s in spans:
        row = rows.setdefault(s[2], [0, 0, 0])
        row[0] += 1
        row[1] += s[4] - s[3]
        row[2] += selfs[s[0]]
    print("%-28s %9s %12s %12s %12s" % ("span", "count", "total_ms",
                                        "self_ms", "mean_ns"))
    for name in sorted(rows, key=lambda k: -rows[k][2]):
        count, total, self_ns = rows[name]
        print("%-28s %9d %12.3f %12.3f %12.0f" % (
            name, count, total * 1e-6, self_ns * 1e-6, total / count))
    print("%-36s %14s %s" % ("metric", "value", "unit"))
    for name, (value, unit) in metrics.items():
        print("%-36s %14.4f %s" % (name, value, unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    bench = Bench(root, args)
    # Stopped from outside: unwind through `finally` so no child outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bench.build()
        os.makedirs(bench.work, exist_ok=True)
        totals, metrics = bench.traced() if args.trace else bench.end_to_end()
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1
    finally:
        bench.cleanup()
    result = {
        "correct": totals["failed"] == 0,
        "attempted": int(totals["attempted"]),
        "failed": int(totals["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
