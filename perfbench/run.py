"""kecc benchmark: time compute_k2ecc on seeded workloads and check every
output against a known truth.

    python3 perfbench/run.py --workload rk-rand --seed 1 --seconds 25 --trace 0

Runs one workload in this process, one call at a time, in passes over the
workload's graph suite until another pass would overrun --seconds (at least
one pass).  A graph's time is the median over passes, and a workload's the
geometric mean over its suite.  With --trace 0 it reports the end-to-end
metrics of untraced calls; with --trace 1 it alternates untraced and traced
calls and reports the per-layer split of the traced ones, as totals over one
pass of the suite (see tracer.py).  Each metric is printed on its own line
with its unit, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The program is imported from
src/ next to this directory; without it the harness fails to start.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from kecc import (DecompositionError, GraphError, compute_k2ecc,  # noqa: E402
                  gen_random_kec, sub_rng)
import reference  # noqa: E402
from tracer import Trace  # noqa: E402
from workloads import (K, WORKLOADS, check, separated_pairs,  # noqa: E402
                       truth)

SETUP_REPS = 5
CAL_REF_S = 0.05


class Clock:
    """Wall time scaled to a reference host speed.

    Other tenants slow a shared 2-vCPU Intel Xeon host by up to 2x for tens
    of seconds at a time, alike for most pure-Python work, while CPU time
    tracks wall time.  A fixed kernel, bounded flows of
    the reference on a fixed graph, is timed after every measurement; a
    measurement is scaled by CAL_REF_S over the mean kernel time just before
    and after it.  The result reads in seconds on a host where the kernel
    takes CAL_REF_S, about such a Xeon unloaded.
    """

    def __init__(self):
        self.net = reference.Network(gen_random_kec(300, 2, 1800, 0))
        self.last = self.kernel()

    def kernel(self):
        t0 = time.perf_counter()
        for v in range(1, 120):
            self.net.connected(0, v, 4)
        return time.perf_counter() - t0

    def scale(self):
        """Factor for the measurement taken since the previous call."""
        now = self.kernel()
        factor = 2 * CAL_REF_S / (self.last + now)
        self.last = now
        return factor


def passes(seconds, one_pass):
    """Repeat one_pass until another pass would likely overrun `seconds`."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return


class Bench:
    """One workload at one seed: its graph suite, calls and output checks."""

    def __init__(self, workload, seed):
        self.w = workload
        self.seed = seed
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = {}  # id(inputs) -> (inputs, blocks of the first call)
        times = []
        for _ in range(SETUP_REPS):
            self.suite = None  # hold one suite at a time: peak_rss_mb
            t0 = time.perf_counter()
            self.suite = workload.suite(seed)
            times.append((time.perf_counter() - t0) * self.clock.scale())
        self.setup_s = statistics.median(times)

    def call(self, index, inputs, trace=None):
        """(wall s, clock scale) of one compute_k2ecc call on suite graph
        `index` (main or companion); the output is checked later."""
        rng = (sub_rng(f"{self.seed}/{index}", "perfbench-components")
               if self.w.mode == "rand" else None)
        args = (inputs.graph, K, self.w.delta, self.w.mode, rng)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if trace is None:
                part = compute_k2ecc(*args)
            else:
                part = trace.call(compute_k2ecc, *args)
        except (DecompositionError, GraphError) as exc:
            part = None
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        scale = self.clock.scale()
        if part is not None:
            blocks = sorted(part.blocks())
            _, first = self.outputs.setdefault(id(inputs), (inputs, blocks))
            if blocks != first:
                self.errors.append("calls on one graph disagree")
        return wall, scale

    def check_outputs(self):
        """Check the output of every graph called; returns (missed,
        separated) pair counts summed over the main graphs."""
        mains = {id(main) for main, _half in self.suite}
        missed = separated = 0
        for inputs, blocks in self.outputs.values():
            true_blocks = truth(inputs)
            ok, miss = check(self.w.must_equal, blocks, true_blocks)
            if not ok:
                self.failed += 1
                self.errors.append("output differs from the truth")
            elif id(inputs) in mains:
                missed += miss
                separated += separated_pairs(true_blocks)
        return missed, separated


def suite_seconds(times):
    """Geometric mean over the suite of each graph's median time."""
    return statistics.geometric_mean(map(statistics.median, times))


def untraced(bench, seconds):
    main_t = [[] for _ in bench.suite]
    half_t = [[] for _ in bench.suite]

    def one_pass():
        for i, (main, half) in enumerate(bench.suite):
            wall, scale = bench.call(i, main)
            main_t[i].append(wall * scale)
            wall, scale = bench.call(i, half)
            half_t[i].append(wall * scale)

    passes(seconds, one_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    missed, separated = bench.check_outputs()
    components_s, half_s = suite_seconds(main_t), suite_seconds(half_t)
    metrics = {
        "components_s": (components_s, "s"),
        "setup_s": (bench.setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "time_exponent": (math.log2(components_s / half_s), "1"),
        "separation_recall": (
            1 - missed / separated if separated else 0.0, "ratio"),
    }
    return metrics, missed


def is_timing(key):
    return key.endswith((".s", "_s", ".self_share"))


def trace_once(bench, index):
    """One traced call on main graph `index`: (trace, wall s, clock scale).

    Also checks that the self times of its spans add up to its wall time.
    """
    trace = Trace()
    wall, scale = bench.call(index, bench.suite[index][0], trace)
    if abs(trace.self_total() - wall) > 0.01 * wall:
        bench.errors.append("span self times do not add up to the call")
    return trace, wall, scale


def traced(bench, seconds):
    plain_t = [[] for _ in bench.suite]
    traced_t = [[] for _ in bench.suite]
    rows = []

    def one_pass():
        total = Trace()
        for i, (main, _half) in enumerate(bench.suite):
            wall, scale = bench.call(i, main)
            plain_t[i].append(wall * scale)
            trace, wall, scale = trace_once(bench, i)
            traced_t[i].append(wall * scale)
            total.add(trace, scale)
        rows.append(total.metrics())

    passes(seconds, one_pass)
    missed, _separated = bench.check_outputs()
    first = rows[0]
    for name in bench.w.must_fire:
        if first[name + ".calls"] == 0:
            bench.errors.append(f"{name} never fired")
    for name in bench.w.must_not_fire:
        if first[name + ".calls"] != 0:
            bench.errors.append(f"{name} fired")
    counts = [{k: v for k, v in row.items() if not is_timing(k)}
              for row in rows]
    if any(c != counts[0] for c in counts):
        bench.errors.append("passes over one suite do different work")

    metrics = {}
    for key, value in first.items():
        if is_timing(key):
            value = statistics.median(row[key] for row in rows)
            unit = "ratio" if key.endswith(".self_share") else "s"
        else:
            unit = "ratio" if key.endswith("_ratio") else "count"
        metrics[key] = (value, unit)
    metrics["gen.s"] = (bench.setup_s, "s")
    metrics["trace.overhead_s"] = (
        suite_seconds(traced_t) - suite_seconds(plain_t), "s")
    return metrics, missed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = Bench(WORKLOADS[args.workload], args.seed)
    measure = traced if args.trace else untraced
    metrics, missed = measure(bench, args.seconds)
    report = dict(metrics)
    report["failed_ratio"] = (bench.failed / bench.attempted, "ratio")
    report["missed_pairs"] = (missed, "count")
    for name, (value, unit) in report.items():
        print(f"{name:55s} {value:>14.6g} {unit}")
    for err in dict.fromkeys(bench.errors):
        print(f"error: {err}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
