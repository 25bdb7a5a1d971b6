"""The benchmark's tracer wraps functions by name in the module namespaces
their callers use; a refactor that removes or renames one of those names
must fail here, not only in a traced benchmark run."""

from __future__ import annotations

import random
import sys
from pathlib import Path

from kecc import compute_k2ecc, gen_random_kec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


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
