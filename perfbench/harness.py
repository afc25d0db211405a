"""The benchmark's own maths: percentiles, the slo_qps search, schedule
lateness, and span self times. Pure functions, tested by test_harness.py."""

import math
import statistics

# Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

# The length of the windows a phase is cut into. On a shared virtual
# machine the hypervisor stalls vCPUs for up to ~16 ms at a time, in bursts
# that spoil a few hundred milliseconds; a phase's p90/p99 then swing
# several-fold between identical runs, and even its median can move. Each
# latency is therefore reported as the median, over the phase's windows,
# of that window's percentile: a burst spoils only its own windows (see
# README.md). The latency limit (and so slo_qps) applies to the windowed
# p50.
WINDOW_US = 100000.0


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return min(n, max(1, math.ceil(round(p / 100.0 * n, 6))))


def percentile(sorted_values, p):
    """Nearest-rank percentile (0 < p <= 100) of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[rank(len(sorted_values), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def highest_supported_percentile(n, min_beyond=10):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= min_beyond:
            best = p
    return best


# A phase has a growing backlog when more than this many seconds of
# arrivals are still unanswered at its scheduled end.
BACKLOG_SECONDS = 0.05


def windowed_percentile(latencies_us, due_us, p, window_us=WINDOW_US):
    """Median over windows (by due time) of each window's p-th percentile,
    counting only windows with at least ten samples beyond it. Returns
    (value, windows used); value is None when no window qualifies."""
    windows = {}
    for lat, due in zip(latencies_us, due_us):
        windows.setdefault(int(due // window_us), []).append(lat)
    values = [percentile(sorted(w), p) for w in windows.values()
              if samples_beyond(len(w), p) >= 10]
    if not values:
        return None, 0
    return statistics.median(values), len(values)


def summarize_phase(latencies_us, late_us, due_us, failed, outstanding_at_end,
                    rate, late_limit_us):
    """Judges one open-loop phase.

    latencies_us holds one value per attempted request, +inf for a failed
    one (a failure misses any latency limit); late_us and due_us are the
    generator's lateness and each request's due time after the phase
    start. p50_us and p90_us are windowed (windowed_percentile). The
    whole-phase percentiles, up to the highest one with ten samples beyond
    it, are kept for the log. The phase is `valid` when the generator kept
    to its schedule (median lateness within late_limit_us: host stalls make
    the lateness tail noisy, a saturated generator moves its median) and
    `backlog` when more than BACKLOG_SECONDS of arrivals were still
    unanswered at the schedule's end: a server that keeps up holds about
    rate * latency requests (Little's law), far fewer; one that does not
    falls further behind every second.
    """
    lat = sorted(latencies_us)
    n = len(lat)
    top = highest_supported_percentile(n)
    late_p50 = percentile(sorted(late_us), 50.0)
    p50, windows = windowed_percentile(latencies_us, due_us, 50.0)
    p90, _ = windowed_percentile(latencies_us, due_us, 90.0)
    return {
        "n": n,
        "windows": windows,
        "p50_us": p50,
        "p90_us": p90,
        "phase_p50_us": percentile(lat, 50.0),
        "phase_p99_us": percentile(lat, 99.0),
        "top_percentile": top,
        "top_us": percentile(lat, top) if top is not None else None,
        "late_p50_us": late_p50,
        "late_p99_us": percentile(sorted(late_us), 99.0),
        "valid": late_p50 <= late_limit_us,
        "backlog": outstanding_at_end > max(1.0, rate * BACKLOG_SECONDS),
        "failed": failed,
    }


def phase_is_clean(summary):
    """True when a phase had no failures and no growing backlog, from a
    generator that kept to its schedule, with enough samples for a windowed
    p50: its latency is the server's, and it is the only thing it can fail
    the limit on."""
    return (summary["valid"] and summary["p50_us"] is not None and
            summary["failed"] == 0 and not summary["backlog"])


def phase_meets_slo(summary, limit_us):
    """True when a clean phase's windowed p50 meets the latency limit."""
    return phase_is_clean(summary) and summary["p50_us"] <= limit_us


def rate_ladder(base, step, rungs):
    """A fixed geometric ladder: base * step**k for k < rungs."""
    return [base * step ** k for k in range(rungs)]


def slo_search(rungs, probe, limit_us, max_probes):
    """Finds the highest rate on a fixed ascending ladder `rungs` that
    meets the limit, by bisection: probe(rate) returns a phase summary, and
    each probe halves the span of rungs still in doubt, so max_probes
    probes settle a ladder of 2**max_probes rungs. Rates below the ladder
    are taken to pass and rates above it to fail. Returns (slo_qps,
    probes) where probes lists (rate, summary, passed); slo_qps comes from
    interpolate_slo.
    """
    probes = []
    lo, hi = -1, len(rungs)  # rungs[lo] passes, rungs[hi] fails
    while hi - lo > 1 and len(probes) < max_probes:
        mid = (lo + hi) // 2
        summary = probe(rungs[mid])
        ok = phase_meets_slo(summary, limit_us)
        probes.append((rungs[mid], summary, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return interpolate_slo(probes, limit_us), probes


def interpolate_slo(probes, limit_us):
    """Rate where the windowed p50 crosses the limit, interpolated linearly
    between the highest passing probe and the lowest failing one above it,
    so it moves smoothly with the system instead of snapping to a rung.
    With no passing probe the origin (rate 0, latency 0) stands in for one.
    The passing rate itself is returned when no probe failed above it, or
    when that probe failed on anything but its latency (failures, backlog,
    a late generator, too few samples): its p50 then says nothing about
    where the limit is crossed."""
    passing = [(r, s["p50_us"]) for r, s, ok in probes if ok]
    r_pass, p_pass = max(passing) if passing else (0.0, 0.0)
    above = [(r, s) for r, s, ok in probes if not ok and r > r_pass]
    if not above:
        return float(r_pass)
    r_fail, s_fail = min(above, key=lambda x: x[0])
    if not phase_is_clean(s_fail):
        return float(r_pass)
    # p_pass <= limit_us < p_fail, so the crossing lies in [r_pass, r_fail).
    frac = (limit_us - p_pass) / (s_fail["p50_us"] - p_pass)
    return r_pass + (r_fail - r_pass) * frac


def steal_share(ticks, seconds, cpus, ticks_per_second):
    """The share of `cpus` CPUs' time over `seconds` that the hypervisor
    took (`ticks` of /proc/stat steal time)."""
    return ticks / max(1e-9, seconds * ticks_per_second * cpus)


def least_stolen(blocks, keep):
    """The items of the `keep` blocks that lost the least CPU time to
    steal, in their original order. blocks: list of (steal share, item);
    ties go to the earlier block."""
    order = sorted(range(len(blocks)), key=lambda k: (blocks[k][0], k))
    return [blocks[k][1] for k in sorted(order[:keep])]


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    that its child spans cover. spans: iterable of (id, parent, name,
    start_ns, end_ns, request)."""
    children = {}
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        children.setdefault(span[1], []).append((span[3], span[4]))
    out = {}
    for sid, span in by_id.items():
        start, end = span[3], span[4]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_of(name):
    """The module a span name belongs to (its first dotted component)."""
    return name.split(".", 1)[0]

