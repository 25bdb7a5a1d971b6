"""The benchmark's tracer wraps functions by name in the module namespaces
their callers use; a refactor that removes or renames one of those names
must fail here, not only in a traced benchmark run."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from kecc import compute_k2ecc, gen_random_kec, sub_rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

# per workload, the smallest seed-1 suite graph on which every span of its
# must_fire list fires: (suite index, 0 for the main graph or 1 for its
# half-size companion)
FIRING_GRAPH = {"rk-rand": (11, 1), "chain-rand": (0, 1), "rk-exact": (0, 1)}


def test_tracer_installs_and_restores_every_span():
    before = [owner.__dict__[attr] for _name, owner, attr in tracer.SPANS]
    with tracer.Trace().installed():
        for (_name, owner, attr), fn in zip(tracer.SPANS, before):
            assert owner.__dict__[attr] is not fn
    assert [owner.__dict__[attr]
            for _name, owner, attr in tracer.SPANS] == before


def test_traced_call_matches_untraced():
    g = gen_random_kec(40, 2, 200, 0)
    want = compute_k2ecc(g, 2, 0.25, "rand", random.Random(0))
    trace = tracer.Trace()
    got = trace.call(compute_k2ecc, g, 2, 0.25, "rand", random.Random(0))
    assert got == want
    assert trace.spans[tracer.ROOT][0] == 1
    assert trace.spans["flow.lambda_bounded.gate"][0] > 0


def test_traced_exact_call_fires_flow_state_and_not_the_gate():
    # rk-exact's must_fire and must_not_fire: the small-set pass reads every
    # vertex off one flow_state call and exact mode runs no gate
    g = gen_random_kec(40, 2, 200, 0)
    trace = tracer.Trace()
    got = trace.call(compute_k2ecc, g, 2, 0.25, "exact")
    assert got == compute_k2ecc(g, 2, 0.25, "exact")
    assert trace.spans["flow.flow_state"][0] > 0
    assert trace.spans["flow.lambda_bounded.gate"][0] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_spans_fire_as_listed(name):
    # a traced benchmark run fails when a must_fire span reads 0 calls or a
    # must_not_fire span reads more; one call on one suite graph, with the
    # rng stream perfbench/run.py gives it, shows both lists hold
    w = workloads.WORKLOADS[name]
    index, which = FIRING_GRAPH[name]
    graph = w.suite(1)[index][which].graph
    rng = (sub_rng(f"1/{index}", "perfbench-components")
           if w.mode == "rand" else None)
    trace = tracer.Trace()
    trace.call(compute_k2ecc, graph, workloads.K, w.delta, w.mode, rng)
    assert w.must_fire
    assert [span for span in w.must_fire if not trace.spans[span][0]] == []
    assert [span for span in w.must_not_fire if trace.spans[span][0]] == []
