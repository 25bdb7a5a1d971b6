"""Proper-order processing, the two-phase decomposition and its verifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kecc.decompose as dc
import kecc.flow
from kecc.decompose import (DecompositionError, decompose_kecc, proper_order,
                            verify_decomposition)
from kecc.digraph import (ConnectivityError, Digraph, GraphError,
                          ReversalOverlay, from_arcs, materialize, out_of,
                          vol_of)
from kecc.driver import _check_value
from kecc.flow import lambda_bounded, minimal_mincut_side
from kecc.gen import gen_blocks, gen_chain, gen_cyc, gen_kn, gen_random_kec
from kecc.local_search import EMPTY, MSetResult
from kecc.oracle import (enumerate_separators, lambda_oracle,
                         mutually_connected)

from conftest import (arrays, block_rings, fingerprint,
                      random_strongly_connected)

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)


def test_proper_order_kn():
    # every vertex is (k+1)-connected to the root, so no class
    assert proper_order(gen_kn(6), 0, 3) == []


def test_proper_order_blocks():
    classes = proper_order(gen_blocks(5, 5, 2), 1, 2)
    assert [(m, sorted(c)) for m, c in classes] == [
        ([5, 6, 7, 8, 9], [5, 6, 7, 8, 9])]


def test_proper_order_cycle_singletons():
    classes = proper_order(gen_cyc(5, 2), 0, 2)
    assert sorted(tuple(m) for m, _c in classes) == \
        [(1,), (2,), (3,), (4,)]
    for members, cut in classes:
        assert sorted(cut) == members


def test_proper_order_respects_containment(rng):
    for _ in range(12):
        n = rng.randrange(5, 11)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, n), rng.randrange(10**6))
        classes = proper_order(g, 0, k)
        for i, (_m1, c1) in enumerate(classes):
            for _m2, c2 in classes[:i]:
                assert not c1 < c2


def test_proper_order_rejects_underconnected():
    g = gen_cyc(4, 1)
    with pytest.raises(GraphError):
        proper_order(g, 0, 2)


def reference_order(g, s, k):
    """proper_order's classes from one pair of flows on g per vertex."""
    by_set = {}
    for v in g.ordinary_vertices():
        lam = k + 1 if v == s else lambda_bounded(g, v, s, k + 1)
        if lam > k:
            continue
        if lam < k:
            raise GraphError(
                f"graph is not {k}-edge-connected: lambda({v},{s})={lam}")
        by_set.setdefault(minimal_mincut_side(g, v, s), []).append(v)
    return sorted(((m, c) for c, m in by_set.items()),
                  key=lambda mc: (len(mc[1]), min(mc[1])))


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


def test_proper_order_matches_whole_graph_flows(monkeypatch):
    # flows into the vertices proven at lambda >= k, and inside a found side
    # into the side's marked complement, give the classes, their order and
    # the precondition error that whole-graph flows into the root give; once
    # a vertex sits at lambda = k, a flow at k+1 into proven whose recorded
    # path ends are all proven at k+1 certifies its source, and one whose
    # ends are not is run again: both happen
    flows = []  # (source, FlowState) of each flow of one proper_order call
    flow_state = dc.flow_state

    def recorded(g, src, *args):
        fs = flow_state(g, src, *args)
        flows.append((src, fs))
        return fs

    monkeypatch.setattr(dc, "flow_state", recorded)
    stood = []  # per flow at k+1 into proven read after one at k

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(order_cases())
    def check(case):
        g, s, k = case
        flows.clear()
        try:
            expected = reference_order(g, s, k)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                proper_order(g, s, k)
            assert str(got.value) == str(exc)
        else:
            assert proper_order(g, s, k) == expected
        at_k = False
        for (src, fs), (after, _fs) in zip(flows, flows[1:] + [(None, None)]):
            if at_k and fs.value == k + 1 and fs.sinks is flows[0][1].sinks:
                stood.append(after != src)
            at_k = at_k or fs.value == k

    check()
    assert stood.count(True) and stood.count(False), stood


def recorded_flows(monkeypatch):
    """The list that receives (graph, source, marks, slots unmarked at the
    call) for each flow that proper_order makes from now on, directly or
    through the flow module's helpers; every one of them must run into
    marked sinks."""
    flows = []
    flow_state = kecc.flow.flow_state

    def recorded(g, src, dst, cap=None, sinks=None):
        assert sinks is not None
        flows.append((g, src, sinks,
                      {x for x, m in enumerate(sinks) if not m}))
        return flow_state(g, src, dst, cap, sinks)

    monkeypatch.setattr(dc, "flow_state", recorded)
    monkeypatch.setattr(kecc.flow, "flow_state", recorded)
    return flows


def root_marks(flows):
    """proper_order's two arrays around the root, as (proven, sinks):
    proven, s and every vertex read at lambda >= k, takes the first flow;
    sinks, s and the vertices at lambda >= k+1, takes each flow run again
    from the source of the flow before it (None when no flow is)."""
    proven = flows[0][2]
    again = {id(b[2]): b[2] for a, b in zip(flows, flows[1:]) if a[1] == b[1]}
    assert len(again) <= 1 and all(m is not proven for m in again.values())
    return proven, next(iter(again.values()), None)


def shuffled_chain(blocks, rng):
    """gen_chain(blocks, 6, 1) with vertex ids permuted by rng."""
    g = gen_chain(blocks, 6, 1)
    perm = list(range(g.n_slots()))
    rng.shuffle(perm)
    return from_arcs(g.n_slots(), [(perm[g.e_tail[e]], perm[g.e_head[e]], 1)
                                   for e in g.edges()])


def test_proper_order_flows_follow_blocks(monkeypatch):
    # one flow into proven per block of 6, not one per vertex (179 before),
    # and one flow per later vertex of a side, on g into the side's marked
    # complement, which reads both lambda and the minimal side and expands
    # no vertex outside the side; the root's block is read before any
    # vertex at lambda = k, so no flow runs again into sinks
    g = gen_chain(30, 6, 1)
    flows = recorded_flows(monkeypatch)
    expanded = []  # (index of the flow last started, vertex)
    succ = ReversalOverlay.succ
    monkeypatch.setattr(
        ReversalOverlay, "succ",
        lambda ov, x: expanded.append((len(flows) - 1, x)) or succ(ov, x))
    proper_order(g, 0, 2)
    assert len(flows) == 179 and all(f[0] is g for f in flows)
    proven, sinks = root_marks(flows)
    assert sinks is None
    assert sum(f[2] is proven for f in flows) <= 34
    side = {}  # id of a side's marks -> the slots its first flow left unmarked
    for _h, _src, marks, unmarked in flows:
        side.setdefault(id(marks), unmarked)
    inside = [(flows[i][2], x) for i, x in expanded
              if flows[i][2] is not proven]
    assert inside
    assert [x for marks, x in inside if x not in side[id(marks)]] == []


def test_proper_order_runs_again_into_sinks(monkeypatch):
    # with shuffled ids, vertices of the root's block are read after blocks
    # at lambda = k; a flow of theirs into proven that ends in such a block
    # is run again into sinks, which marks a subset of proven
    g = shuffled_chain(30, random.Random(0))
    flows = recorded_flows(monkeypatch)
    proper_order(g, 0, 2)
    proven, sinks = root_marks(flows)
    again = [(a[3], b[3]) for a, b in zip(flows, flows[1:]) if b[2] is sinks]
    assert sinks is not None and again
    assert all(before < unmarked for before, unmarked in again)


def test_proper_order_successor_reads_grow_with_the_ring(monkeypatch):
    # each flow stops at the nearest vertex proven at lambda >= k, so on a
    # ring of 2-out blocks with shuffled ids the successor reads grow about
    # linearly: 6426, 14680 and 31116 at 60, 120 and 240 blocks, where flows
    # into the vertices at lambda >= k+1 alone, before flows kept their
    # reach, read 32582, 119193 and 454531
    calls = [0]
    succ = ReversalOverlay.succ

    def counted(ov, x):
        calls[0] += 1
        return succ(ov, x)

    monkeypatch.setattr(ReversalOverlay, "succ", counted)
    reads = []
    for blocks in (60, 120, 240):
        g = shuffled_chain(blocks, random.Random(0))
        calls[0] = 0
        proper_order(g, 0, 2)
        reads.append(calls[0])
    assert all(b <= 2.5 * a for a, b in zip(reads, reads[1:])), reads


def test_proper_order_side_graph_keeps_precondition(monkeypatch):
    # S = {1, 2} is vertex 1's minimal side; vertex 2 is checked by a flow on
    # g into S's marked complement and still fails lambda(2, 0) >= 2
    g = from_arcs(3, [(0, 1, 2), (0, 2, 1), (1, 2, 2), (1, 0, 1), (2, 0, 1)])
    flows = recorded_flows(monkeypatch)
    with pytest.raises(GraphError, match=r"lambda\(2,0\)=1"):
        proper_order(g, 0, 2)
    assert all(f[0] is g for f in flows)
    proven, sinks = root_marks(flows)
    assert sinks is None
    assert flows[-1][2] is not proven and flows[-1][3] == {1, 2}


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
    # remainder (that graph, left as it is, materialized again) has the same
    # arrays, so _phase returns the graph itself
    for g, k in [(gen_kn(6), 3), (gen_random_kec(40, 3, 160, 2), 2)]:
        base, _ = materialize(g)
        live = g.vertices()
        assert not proper_order(base, 0, k)
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


@pytest.mark.parametrize("mode", ["det", "rand"])
def test_decompose_copies_no_graph(monkeypatch, mode):
    # each phase contracts the graph it is given in place: phase 1
    # materialize's private output, phase 2 the reverse view of a phase-1
    # output that nothing reads afterwards
    copies = []
    copy = Digraph.copy
    monkeypatch.setattr(Digraph, "copy",
                        lambda g: copies.append(g) or copy(g))
    pieces = decompose_kecc(gen_chain(30, 6, 1), 2, 0.25, mode,
                            random.Random(0))
    assert len(pieces) == 30 and copies == []


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


def test_decompose_phase_one_error_names_g_ids():
    # phase 1 runs on materialize(g); with {1, 2} contracted into 1, g's
    # vertex 5 is vertex 4 there, and the error names g's 5 and s = 0
    g = gen_chain(10, 5, 1)
    g.contract_lazy({1, 2}, 1)
    with pytest.raises(ConnectivityError, match=r"lambda\(5,0\)=2$"):
        decompose_kecc(g, 3, 0.1, "det")


def test_decompose_phase_two_error_names_g_pair():
    # nothing enters vertex 2, so lambda(0, 2) = 0; phase 1 passes (both 1
    # and 2 reach 0) and phase 2 finds the cut on the reversed side graph
    # of {2}, whose own ids would name the pair (0, 1)
    g = from_arcs(3, [(1, 0, 1), (2, 0, 1), (0, 1, 1)])
    with pytest.raises(ConnectivityError, match=r"lambda\(0,2\)=0$"):
        decompose_kecc(g, 1, 0.1, "det")


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(3, 8))
    pairs = [(u, v, 1) for u in range(n) for v in range(n) if u != v]
    return from_arcs(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_digraphs(), st.integers(1, 3))
def test_decompose_error_names_a_pair_below_k(g, k):
    # whichever phase finds it, the pair is one of g at the value stated,
    # and the driver words the same (k, value, pair) the same way
    try:
        decompose_kecc(g, k, 0.1, "det")
    except ConnectivityError as exc:
        u, v = exc.pair
        assert lambda_oracle(g, u, v, k) == exc.value < k
        assert str(exc) == (f"graph is not {k}-edge-connected: "
                            f"lambda({u},{v})={exc.value}")
        with pytest.raises(ConnectivityError) as raised:
            _check_value(exc.value, u, v, k, False)
        assert str(raised.value) == str(exc)


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
        classes = proper_order(g, s, k)
        if not classes:
            continue
        gev = g.copy()
        members, cut = classes[0]
        rep = min(cut)
        gev.contract_lazy(cut, rep)
        rep_of = {u: rep if u in cut else u for u in g.vertices()}
        snap, vmap = materialize(gev)
        expand = {vmap[old]: {u for u in g.vertices() if rep_of[u] == old}
                  for old in gev.vertices()}
        for local_set in enumerate_separators(snap, vmap[rep_of[1 if s == 0 else 0]], vmap[s], k) \
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
            for i, (members, _cut) in enumerate(order):
                if v in members:
                    return i
            return None  # lambda(v, s) > k, s included

        for u in range(n):
            for v in range(u + 1, n):
                same = (class_of(fwd, u) == class_of(fwd, v)
                        and class_of(bwd, u) == class_of(bwd, v))
                assert same == mutually_connected(g, u, v, k + 1)


@st.composite
def kec_cases(draw):
    """(graph, k): a block ring at k = 2, or a small random
    k-edge-connected graph."""
    if draw(st.booleans()):
        return draw(block_rings()), 2
    k = draw(st.integers(1, 3))
    n = draw(st.integers(3, 12))
    return gen_random_kec(n, k, draw(st.integers(0, 2 * n)),
                          draw(st.integers(0, 10**6))), k


@pytest.mark.parametrize("mode", ["det", "rand"])
def test_phase_contracts_the_sides_proper_order_found(monkeypatch, mode):
    # each set a phase contracts is the side proper_order returned for its
    # class, with every set contracted earlier in the phase replaced by its
    # representative: the sides are laminar, so the phase could contract
    # them without searching
    phases = []  # per proper_order call: its classes, then the contractions
    order, contract_lazy = dc.proper_order, Digraph.contract_lazy

    def ordered(g, s, k):
        classes = order(g, s, k)
        phases.append((classes, []))
        return classes

    def contracted(g, members, rep):
        phases[-1][1].append((set(members), rep))
        return contract_lazy(g, members, rep)

    monkeypatch.setattr(dc, "proper_order", ordered)
    monkeypatch.setattr(Digraph, "contract_lazy", contracted)
    nested = 0  # sides that held an earlier contracted set

    @PROPERTY
    @given(kec_cases(), st.integers(0, 2**32 - 1))
    def check(case, seed):
        nonlocal nested
        g, k = case
        phases.clear()
        decompose_kecc(g, k, 1e-4, mode, random.Random(seed))
        for classes, contractions in phases:
            assert len(contractions) == len(classes)
            into = {}  # contracted vertex -> the representative it merged into

            def current(u):
                while u in into:
                    u = into[u]
                return u

            for (_members, side), (members, rep) in zip(classes,
                                                        contractions):
                mapped = {current(u) for u in side}
                nested += len(mapped) < len(side)
                assert members == mapped
                into.update((u, rep) for u in members if u != rep)

    check()
    assert nested
