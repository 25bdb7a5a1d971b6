"""Proper-order processing, the two-phase decomposition and its verifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kecc.decompose as dc
from kecc.decompose import (DecompositionError, decompose_kecc, proper_order,
                            verify_decomposition)
from kecc.digraph import (AUX_KOUT, GraphError, from_arcs, materialize, out_of,
                          vol_of)
from kecc.flow import CertifiedSink, lambda_bounded, minimal_mincut_side
from kecc.gen import gen_blocks, gen_chain, gen_cyc, gen_kn, gen_random_kec
from kecc.local_search import EMPTY, MSetResult
from kecc.oracle import enumerate_separators, mutually_connected

from conftest import arrays, fingerprint, random_strongly_connected

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)


def test_proper_order_kn():
    po = proper_order(gen_kn(6), 0, 3)
    assert len(po.classes) == 1
    assert po.classes[0][1] is None
    assert po.classes[0][0] == list(range(6))


def test_proper_order_blocks():
    po = proper_order(gen_blocks(5, 5, 2), 1, 2)
    assert [(m, sorted(c) if c else None) for m, c in po.classes] == [
        ([5, 6, 7, 8, 9], [5, 6, 7, 8, 9]),
        ([0, 1, 2, 3, 4], None),
    ]


def test_proper_order_cycle_singletons():
    po = proper_order(gen_cyc(5, 2), 0, 2)
    non_bottom = po.non_bottom()
    assert sorted(tuple(m) for m, _c in non_bottom) == \
        [(1,), (2,), (3,), (4,)]
    for members, cut in non_bottom:
        assert sorted(cut) == members


def test_proper_order_respects_containment(rng):
    for _ in range(12):
        n = rng.randrange(5, 11)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, n), rng.randrange(10**6))
        po = proper_order(g, 0, k)
        non_bottom = po.non_bottom()
        for i, (_m1, c1) in enumerate(non_bottom):
            for _m2, c2 in non_bottom[:i]:
                assert not c1 < c2


def test_proper_order_rejects_underconnected():
    g = gen_cyc(4, 1)
    with pytest.raises(GraphError):
        proper_order(g, 0, 2)


def reference_order(g, s, k):
    """proper_order's classes from one pair of flows on g per vertex."""
    by_set = {}
    bottom = []
    for v in g.ordinary_vertices():
        lam = k + 1 if v == s else lambda_bounded(g, v, s, k + 1)
        if lam > k:
            bottom.append(v)
            continue
        if lam < k:
            raise GraphError(
                f"graph is not {k}-edge-connected: lambda({v},{s})={lam}")
        by_set.setdefault(minimal_mincut_side(g, v, s), []).append(v)
    classes = sorted(((m, c) for c, m in by_set.items()),
                     key=lambda mc: (len(mc[1]), min(mc[1])))
    return classes + [(bottom, None)]


@st.composite
def order_cases(draw):
    """(g, s, k) on block chains, unions of Hamiltonian cycles and random
    strongly connected graphs; the last are often not k-edge-connected."""
    family = draw(st.sampled_from(("chain", "kec", "strong")))
    if family == "chain":
        g = gen_chain(draw(st.integers(2, 5)), draw(st.integers(2, 5)),
                      draw(st.integers(1, 2)))
    elif family == "kec":
        n = draw(st.integers(3, 10))
        g = gen_random_kec(n, draw(st.integers(1, 2)), draw(st.integers(0, n)),
                           draw(st.integers(0, 10**6)))
    else:
        rng = random.Random(draw(st.integers(0, 10**6)))
        g = random_strongly_connected(rng, draw(st.integers(3, 9)),
                                      draw(st.integers(0, 20)))
    return g, draw(st.sampled_from(g.vertices())), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(order_cases())
def test_proper_order_matches_whole_graph_flows(case):
    # classifying inside a found side gives the classes, their order and the
    # precondition error that whole-graph flows give
    g, s, k = case
    try:
        expected = reference_order(g, s, k)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            proper_order(g, s, k)
        assert str(got.value) == str(exc)
    else:
        assert proper_order(g, s, k).classes == expected


def recorded_flow_graphs(monkeypatch):
    """The list that receives the graph of each flow that proper_order makes
    from now on: certified flows on the whole graph and lambda_bounded calls
    on side graphs."""
    graphs = []

    def recorded(h, u, v, cap):
        graphs.append(h)
        return lambda_bounded(h, u, v, cap)

    class Recorded(CertifiedSink):
        __slots__ = ()

        def flow(self, v):
            graphs.append(self.overlay.g)
            return super().flow(v)

    monkeypatch.setattr(dc, "lambda_bounded", recorded)
    monkeypatch.setattr(dc, "CertifiedSink", Recorded)
    return graphs


def test_proper_order_flows_follow_blocks(monkeypatch):
    # one whole-graph flow per block of 6, not one per vertex (179 before)
    g = gen_chain(30, 6, 1)
    graphs = recorded_flow_graphs(monkeypatch)
    proper_order(g, 0, 2)
    assert len(graphs) == 179
    assert sum(h is g for h in graphs) <= 34


def test_proper_order_side_graph_keeps_precondition(monkeypatch):
    # S = {1, 2} is vertex 1's minimal side; vertex 2 is checked on S's side
    # graph and still fails lambda(2, 0) >= 2
    g = from_arcs(3, [(0, 1, 2), (0, 2, 1), (1, 2, 2), (1, 0, 1), (2, 0, 1)])
    graphs = recorded_flow_graphs(monkeypatch)
    with pytest.raises(GraphError, match=r"lambda\(2,0\)=1"):
        proper_order(g, 0, 2)
    assert graphs[0] is g and graphs[-1] is not g


def test_class_search_starts_at_volume_floor(monkeypatch):
    # every block of gen_chain(30, 6, 1) has volume 32; no search runs below
    # it (the doubling from 1 ran 3259 searches and found the same 58 sets)
    real = dc.randomized_local_search_mset
    runs = []

    def recorded(g, v, s, k, delta, rng):
        res = real(g, v, s, k, delta, rng)
        runs.append((delta, res.found))
        return res

    monkeypatch.setattr(dc, "randomized_local_search_mset", recorded)
    decompose_kecc(gen_chain(30, 6, 1), 2, 0.25, "rand", random.Random(0))
    assert {delta for delta, _found in runs} == {32}
    assert sum(found for _delta, found in runs) == 58


def test_phase_one_without_classes_returns_its_input():
    # phase 1 runs on materialize's output; with no class to contract, its
    # remainder (that graph copied and materialized again) has the same
    # arrays, so _phase returns the graph itself
    for g, k in [(gen_kn(6), 3), (gen_random_kec(40, 3, 160, 2), 2)]:
        base, _ = materialize(g)
        live = g.vertices()
        assert not proper_order(base, 0, k).non_bottom()
        args = (base, live, 0, k, base.m_live, "det", 1, None)
        (skipped,) = dc._phase(*args, materialized=True)
        (built,) = dc._phase(*args)
        assert skipped[0] is base and built[0] is not base
        assert arrays(skipped[0]) == arrays(built[0])
        assert skipped[1:] == built[1:] == (live, 0)
        # phase 2 runs on reversed graphs, whose edge ids are not in tail
        # order, so materializing them renumbers the edges
        rev = base.reversed()
        assert arrays(materialize(rev)[0]) != arrays(rev)


def test_decompose_kn_single_piece():
    pieces = decompose_kecc(gen_kn(6), 3, 0.1, "det")
    assert len(pieces) == 1
    assert pieces[0].ordinary == list(range(6))
    assert pieces[0].graph.n_live == 6


def test_decompose_blocks_fixture():
    g = gen_blocks(5, 5, 2)
    pieces = decompose_kecc(g, 2, 0.1, "det")
    ords = sorted(tuple(sorted(p.ordinary)) for p in pieces)
    assert ords == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
    report = verify_decomposition(g, pieces, 2)
    assert report.ok, report.failures


def test_decompose_cycle_all_classes():
    g = gen_cyc(6, 2)
    pieces = decompose_kecc(g, 2, 0.1, "det")
    placed = sorted(o for p in pieces for o in p.ordinary)
    assert placed == list(range(6))
    report = verify_decomposition(g, pieces, 2)
    assert report.ok, report.failures


def test_decompose_rand_mode(rng):
    g = gen_blocks(5, 5, 2)
    pieces = decompose_kecc(g, 2, 0.1, "rand", rng)
    report = verify_decomposition(g, pieces, 2)
    assert report.ok, report.failures


def test_decompose_random_sweep(rng):
    for _ in range(12):
        n = rng.randrange(4, 11)
        k = rng.randrange(1, 4)
        g = gen_random_kec(n, k, rng.randrange(0, 2 * n),
                           rng.randrange(10**6))
        pieces = decompose_kecc(g, k, 0.1, "det")
        report = verify_decomposition(g, pieces, k)
        assert report.ok, report.failures


def test_decompose_preserves_k2_connectivity(rng):
    # the headline preservation bullet, on its own random corpus
    for _ in range(10):
        n = rng.randrange(4, 10)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, n), rng.randrange(10**6))
        pieces = decompose_kecc(g, k, 0.1, "det")
        placed = {}
        for i, p in enumerate(pieces):
            for o in p.ordinary:
                placed[o] = i
        for u in range(n):
            for v in range(u + 1, n):
                whole = mutually_connected(g, u, v, k + 2)
                inside = False
                if placed[u] == placed[v]:
                    p = pieces[placed[u]]
                    local = p.local_of()
                    inside = mutually_connected(p.graph, local[u], local[v],
                                                k + 2)
                assert whole == inside


def test_decompose_failure_detected(monkeypatch, rng):
    calls = []

    def always_empty(g, v, s, k, delta, rng):
        calls.append(1)
        return EMPTY

    monkeypatch.setattr(dc, "randomized_local_search_mset", always_empty)
    with pytest.raises(DecompositionError):
        decompose_kecc(gen_blocks(5, 5, 2), 2, 0.1, "rand", rng)
    assert calls


def test_decompose_late_success_detected(monkeypatch, rng):
    # a set that only surfaces at twice its volume is reported, not used
    real = dc.local_search_mset

    def lazy(g, v, s, k, delta):
        res = real(g, v, s, k, delta)
        if res.found and delta < 2 * vol_of(g, res.members):
            return EMPTY
        return res

    monkeypatch.setattr(dc, "local_search_mset", lazy)
    with pytest.raises(DecompositionError):
        decompose_kecc(gen_blocks(5, 5, 2), 2, 0.1, "det")


def test_decompose_rejects_bad_input():
    with pytest.raises(GraphError):
        decompose_kecc(gen_cyc(4, 1), 2, 0.1, "det")  # only 1-edge-connected


def test_decompose_rejects_dead_start():
    g = gen_kn(4)
    for s in (99, -1):
        with pytest.raises(GraphError, match="not live"):
            decompose_kecc(g, 2, 0.1, "det", s=s)


def test_decompose_class_check_always_on(monkeypatch):
    # a valid k-out set that swallows the next class is rejected, not used
    real = dc.local_search_mset

    def widened(g, v, s, k, delta):
        if v == 1:
            return MSetResult(frozenset({1, 2}))
        return real(g, v, s, k, delta)

    g = gen_cyc(6, 2)
    assert out_of(g, {1, 2}) == 2
    monkeypatch.setattr(dc, "local_search_mset", widened)
    with pytest.raises(DecompositionError, match="not its class"):
        decompose_kecc(g, 2, 0.1, "det")


@st.composite
def planted_graphs(draw):
    """Small k-edge-connected graphs with planted structure: unions of k
    Hamiltonian cycles with a few extra arcs, or cycles of complete blocks."""
    k = draw(st.integers(1, 2))
    if draw(st.booleans()):
        n = draw(st.integers(3, 8))
        return gen_random_kec(n, k, draw(st.integers(0, n)),
                              draw(st.integers(0, 10**6))), k
    # blocks joined by one arc each way are 2-out sets: classes at k=2
    return gen_chain(draw(st.integers(2, 4)), draw(st.integers(3, 4)), 1), k


@PROPERTY
@given(planted_graphs(), st.integers(0, 2**32 - 1))
def test_decompose_planted_property(case, seed):
    g, k = case
    before = fingerprint(g)
    report = verify_decomposition(g, decompose_kecc(g, k, 0.1, "det"), k)
    assert report.ok, report.failures
    try:
        pieces = decompose_kecc(g, k, 0.1, "rand", random.Random(seed))
    except DecompositionError:
        pass  # an allowed rand-mode outcome; a wrong answer is not
    else:
        report = verify_decomposition(g, pieces, k)
        assert report.ok, report.failures
    assert fingerprint(g) == before


def test_verify_negative_control():
    g = gen_blocks(5, 5, 2)
    pieces = decompose_kecc(g, 2, 0.1, "det")
    a = next(p for p in pieces if 0 in p.ordinary)
    b = next(p for p in pieces if 5 in p.ordinary)
    moved = a.ordinary.pop()
    b.ordinary.append(moved)
    report = verify_decomposition(g, pieces, 2)
    assert not report.ok
    assert any(f.startswith(("unique-ordinary", "ordinary-connectivity",
                             "ordinary-membership"))
               for f in report.failures)


def test_verify_size_gates():
    g = gen_cyc(12, 2)
    pieces = decompose_kecc(g, 2, 0.1, "det")
    report = verify_decomposition(g, pieces, 2)
    assert report.ok
    assert report.total_vertices <= 5 * g.n_live
    assert report.total_edges <= 4 * (g.m_live + 2 * g.n_live)


def test_size_gates_large_cycle():
    g = gen_cyc(50, 2)
    pieces = decompose_kecc(g, 2, 0.1, "det")
    total_v = sum(p.graph.n_live for p in pieces)
    total_e = sum(p.graph.m_live for p in pieces)
    assert total_v <= 5 * 50
    assert total_e <= 4 * (g.m_live + 2 * 50)


def test_refined_cuts_property(rng):
    # if no small cut inside S separates x and y, every k-out separator of
    # (x, y) swallows the whole complement of S
    done = 0
    while done < 10:
        n = rng.randrange(4, 9)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, n), rng.randrange(10**6))
        members = set(rng.sample(range(n), rng.randrange(2, n)))
        if out_of(g, members) != k or len(members) < 2:
            continue
        x, y = rng.sample(sorted(members), 2)
        inner = [sep for sep in _subsets_separating(g, members, x, y, k)]
        if inner:
            continue
        for sep in enumerate_separators(g, x, y, k):
            assert set(g.vertices()) - members <= sep
        done += 1


def _subsets_separating(g, members, x, y, k):
    members = sorted(members)
    others = [u for u in members if u not in (x, y)]
    for mask in range(1 << len(others)):
        sub = {x}
        for i, u in enumerate(others):
            if mask >> i & 1:
                sub.add(u)
        if out_of(g, sub) <= k:
            yield sub


def test_persisting_out_sets_pull_back(rng):
    # k-out sets of the evolving graph expand through the contraction map to
    # k-out sets of the original graph
    done = 0
    while done < 8:
        n = rng.randrange(5, 9)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, n), rng.randrange(10**6))
        s = 0
        po = proper_order(g, s, k)
        non_bottom = po.non_bottom()
        if not non_bottom:
            continue
        gev = g.copy()
        gev.enable_lazy()
        members, cut = non_bottom[0]
        gev.contract_lazy(cut, min(cut), kind=AUX_KOUT)
        snap, vmap = materialize(gev)
        expand = {vmap[old]: {u for u in g.vertices()
                              if gev.resolve(u) == old}
                  for old in gev.vertices()}
        for local_set in enumerate_separators(snap, vmap[gev.resolve(1 if s == 0 else 0)], vmap[s], k) \
                if snap.n_live <= 12 else []:
            original = set()
            for u in local_set:
                original |= expand[u]
            assert out_of(g, original) == k
        done += 1


def test_minimal_in_out_sets_characterization(rng):
    # two vertices are (k+1)-connected iff they share both the forward and
    # the reverse minimal-set class
    for _ in range(8):
        n = rng.randrange(4, 10)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, n), rng.randrange(10**6))
        s = 0
        fwd = proper_order(g, s, k)
        bwd = proper_order(g.reversed(), s, k)

        def class_of(order, v):
            for i, (members, _cut) in enumerate(order.classes):
                if v in members:
                    return i
            raise AssertionError

        for u in range(n):
            for v in range(u + 1, n):
                same = (class_of(fwd, u) == class_of(fwd, v)
                        and class_of(bwd, u) == class_of(bwd, v))
                assert same == mutually_connected(g, u, v, k + 1)
