"""Per-layer spans for the benchmark, recorded from outside the program.

Each public function of a layer is wrapped in the module namespace its
callers look it up in, for the duration of one traced call.  ``driver`` and
``decompose`` bind flow and local-search functions at import time, so their
wrappers go into those modules; ``partitions`` imports from ``flow`` inside
its function bodies, so those wrappers go into ``flow`` itself.  Calls a
module makes to its own functions by name are traced too (``proper_order``
from ``_phase``, ``ecc_naive`` from ``good_partition_deficient``); the only
exception is ``flow.flow_state``, which is wrapped in ``driver`` alone so that
it counts the driver's exact-mode flows and not the ones every other flow
function runs inside itself.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times under one root call add up to the root's wall
time.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import kecc.decompose
import kecc.digraph
import kecc.driver
import kecc.flow
import kecc.partitions

# (span name, namespace that callers look the function up in, attribute)
SPANS = (
    ("flow.lambda_bounded.gate", kecc.driver, "lambda_bounded"),
    ("flow.lambda_bounded.proper_order", kecc.decompose, "lambda_bounded"),
    ("flow.lambda_bounded.partitions", kecc.flow, "lambda_bounded"),
    ("flow.minimal_mincut_side", kecc.decompose, "minimal_mincut_side"),
    ("flow.latest_mincut", kecc.flow, "latest_mincut"),
    ("flow.pq_graph", kecc.flow, "pq_graph"),
    ("flow.flow_state", kecc.driver, "flow_state"),
    ("local_search.randomized_local_search_mset", kecc.decompose,
     "randomized_local_search_mset"),
    ("local_search.local_search_mset", kecc.decompose, "local_search_mset"),
    ("local_search.local_search_mset", kecc.driver, "local_search_mset"),
    ("local_search.amplified_mset", kecc.driver, "amplified_mset"),
    ("decompose.decompose_kecc", kecc.driver, "decompose_kecc"),
    ("decompose.proper_order", kecc.decompose, "proper_order"),
    ("digraph.materialize", kecc.decompose, "materialize"),
    ("digraph.contract_complement_reduced", kecc.decompose,
     "contract_complement_reduced"),
    ("digraph.contract", kecc.partitions, "contract"),
    ("digraph.Digraph.reversed", kecc.digraph.Digraph, "reversed"),
    ("driver.compute_partition_single", kecc.driver,
     "compute_partition_single"),
    ("partitions.ecc_naive", kecc.partitions, "ecc_naive"),
    ("partitions.good_partition_deficient", kecc.driver,
     "good_partition_deficient"),
    ("partitions.good_partition_full", kecc.driver, "good_partition_full"),
    ("partitions.good_partition_full", kecc.partitions, "good_partition_full"),
    ("partitions.refine_many", kecc.driver, "refine_many"),
    ("partitions.refine_many", kecc.partitions, "refine_many"),
    ("partitions.partition_from_msets", kecc.driver, "partition_from_msets"),
)
ROOT = "driver.compute_k2ecc"
SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [name for name, _, _ in SPANS]))
MODULES = ("driver", "decompose", "local_search", "flow", "partitions",
           "digraph")
SEARCHES = ("local_search.randomized_local_search_mset",
            "local_search.local_search_mset", "local_search.amplified_mset")


def _gate(trace, args, out):
    # the driver's gate asks lambda_bounded(h, v, s, k + 2)
    cap = args[3]
    trace.counts[{cap - 2: "flow.gate_lambda_k",
                  cap - 1: "flow.gate_lambda_k1"}.get(
                      out, "flow.gate_lambda_k2")] += 1


def _found(name):
    def observe(trace, _args, out):
        trace.counts[name + ".found"] += out.found
    return observe


def _pieces(trace, _args, out):
    trace.counts["decompose.pieces"] += len(out)
    trace.piece_n_max = max([trace.piece_n_max]
                            + [p.graph.n_live for p in out])


OBSERVERS = {
    "flow.lambda_bounded.gate": _gate,
    "decompose.decompose_kecc": _pieces,
    **{name: _found(name) for name in SEARCHES},
}


class Trace:
    """Spans and counters of traced calls: of one call, or of a pass over a
    suite when other traces are added to it."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = Counter()
        self.piece_n_max = 0
        self._open = []  # time covered by child spans, per open span

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        stack = self._open
        clock = time.perf_counter
        rec = self.spans[name]  # calls, inclusive s, self s

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if observe is not None:
                observe(self, args, out)
            return out

        return span

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for name, owner, attr in SPANS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def call(self, fn, *args, **kwargs):
        """Run one root call with every wrapper installed; the draws of the
        sampling pass are read from the ``stats`` dict the call fills."""
        stats = {}
        try:
            with self.installed():
                return self.wrap(ROOT, fn)(*args, stats=stats, **kwargs)
        finally:
            self.counts["driver.sample_draws"] += sum(
                s["draws"] for s in stats.get("samples", []))

    def add(self, other, scale):
        """Fold in another call's spans and counts, times multiplied by
        scale."""
        for name, (calls, incl, self_s) in other.spans.items():
            rec = self.spans[name]
            rec[0] += calls
            rec[1] += incl * scale
            rec[2] += self_s * scale
        self.counts.update(other.counts)
        self.piece_n_max = max(self.piece_n_max, other.piece_n_max)

    def self_total(self):
        return sum(rec[2] for rec in self.spans.values())

    def metrics(self):
        """Per-layer numbers, by metric name."""
        out = {}
        for name, (calls, incl, self_s) in self.spans.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = incl
            out[name + ".self_s"] = self_s
        for key in ("flow.gate_lambda_k", "flow.gate_lambda_k1",
                    "flow.gate_lambda_k2", "decompose.pieces",
                    "driver.sample_draws"):
            out[key] = self.counts[key]
        out["decompose.piece_n_max"] = self.piece_n_max
        for name in SEARCHES:
            calls = self.spans[name][0]
            out[name + ".found_ratio"] = (
                self.counts[name + ".found"] / calls if calls else 0.0)
        wall = self.spans[ROOT][1]
        for module in MODULES:
            out[module + ".self_share"] = sum(
                rec[2] for name, rec in self.spans.items()
                if name.split(".", 1)[0] == module) / wall
        return out
