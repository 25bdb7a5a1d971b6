"""Self-test of the benchmark harness, separate from the timed runs.

    python3 perfbench/selftest.py

1. The reference truth equals kecc.oracle.ecc_components on small graphs.
2. Per workload, on the first two graphs of its suite: the same seed builds
   the same graphs and another seed other graphs; two traced runs of one
   seed give the same call counts, lambda-gate histogram, sample draws,
   pieces and outputs; the wrappers fire where the workload says they must
   and stay silent where it says they must; every output passes its check.
3. BENCHMARK.json lists exactly the workloads and metrics the harness prints.

Takes about two minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import HERE, Bench, is_timing, traced, untraced  # sets sys.path

from kecc import gen_blocks, gen_random_kec
from kecc.oracle import ecc_components
from workloads import WORKLOADS, chain
import reference

SEED = 7
GRAPHS = 2


def expect(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_reference():
    graphs = [gen_random_kec(n, 2, 6 * n, seed)
              for n, seed in ((40, 1), (80, 2), (200, 3))]
    graphs += [gen_random_kec(60, 3, 120, 4), gen_blocks(6, 5, 2),
               chain(8, 5).graph]
    for g in graphs:
        for c in (2, 3, 4):
            want = sorted(sorted(b) for b in ecc_components(g, c).blocks())
            expect(reference.ecc_components(g, c) == want,
                   f"reference equals the oracle (n={g.n_live}, c={c})")


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def short_bench(w, seed):
    bench = Bench(w, seed)
    bench.suite = bench.suite[:GRAPHS]
    return bench


def digests(bench):
    """(arc-list digest, planted blocks) per main graph of the suite."""
    out = []
    for main, _half in bench.suite:
        arcs = sorted(main.graph.ends(e) for e in main.graph.edges())
        out.append((digest(arcs), main.planted))
    return out


def check_workload(w):
    a, b = short_bench(w, SEED), short_bench(w, SEED)
    expect(digests(a) == digests(b), f"{w.name}: one seed builds one suite")
    other = digests(short_bench(w, SEED + 1))
    expect(all(x[0] != y[0] for x, y in zip(digests(a), other)),
           f"{w.name}: another seed builds other graphs")
    layers_a, _ = traced(a, 0)
    layers_b, _ = traced(b, 0)
    counts_a = {k: v for k, (v, _u) in layers_a.items() if not is_timing(k)}
    counts_b = {k: v for k, (v, _u) in layers_b.items() if not is_timing(k)}
    expect(counts_a == counts_b,
           f"{w.name}: one seed gives identical counts, gate histogram, "
           f"draws and pieces ({counts_a['decompose.pieces']} pieces, "
           f"{counts_a['driver.sample_draws']} draws)")
    expect([digest(x) for _, x in a.outputs.values()]
           == [digest(x) for _, x in b.outputs.values()],
           f"{w.name}: one seed gives identical partitions")
    expect(not a.errors and not b.errors,
           f"{w.name}: wrappers fire where expected, self times add up, "
           f"outputs pass their checks {a.errors + b.errors}")
    return list(layers_a)


def check_manifest(layer_names):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names every workload")
    bench = Bench(WORKLOADS["chain-rand"], SEED)
    bench.suite = [(chain(4, SEED), chain(2, SEED))]
    e2e, _missed = untraced(bench, 0)
    expect([m["name"] for m in spec["end_to_end"]] == list(e2e),
           "BENCHMARK.json lists every end-to-end metric")
    expect([m["name"] for m in spec["per_layer"]] == layer_names,
           "BENCHMARK.json lists every per-layer metric")


def main():
    check_reference()
    layer_names = None
    for w in WORKLOADS.values():
        layer_names = check_workload(w)
    check_manifest(layer_names)
    print("selftest passed")


if __name__ == "__main__":
    main()
