"""Single-graph driver and the end-to-end component pipeline."""

import copy
from collections import Counter
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kecc.driver as drv
from kecc.digraph import (AUXILIARY, ConnectivityError, Digraph, GraphError,
                          vol_of)
from kecc.decompose import decompose_kecc
from kecc.driver import (compute_4ecc_prepared, compute_k2ecc,
                         compute_partition_single, sample_count)
from kecc.flow import flow_state, lambda_bounded
from kecc.gen import (gen_blocks, gen_chain, gen_cyc, gen_kn, gen_random_kec,
                      sub_rng)
from kecc.oracle import (BOTTOM, ecc_components, mset_oracle,
                         mutually_connected, verify_partition)
from kecc.partitions import ecc_naive, good_partition, partition_from_msets
from kecc.local_search import local_search_mset

from conftest import (arrays, block_rings, planted_deficient,
                      strongly_connected_audit)


def test_sample_count_formula():
    assert sample_count(100, 0.5) == math.ceil(10 * math.log2(800)) == 97


def test_single_piece_from_blocks_decomposition():
    g = gen_blocks(6, 6, 2)
    pieces = decompose_kecc(g, 2, 0.1, "det")
    piece = next(p for p in pieces if 0 in p.ordinary)
    part = compute_partition_single(piece.graph, 2, 0.2, "exact")
    local = piece.local_of()
    ids = {part.label[local[o]] for o in piece.ordinary}
    assert len(ids) == 1  # the A side is one 4-connected block


def test_exact_mode_matches_oracle(rng):
    for _ in range(10):
        n = rng.randrange(4, 10)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, 2 * n),
                           rng.randrange(10**6))
        got = compute_k2ecc(g, k, 0.2, "exact")
        want = ecc_components(g, k + 2)
        assert got == want


def test_pipeline_fixtures():
    assert compute_k2ecc(gen_blocks(6, 6, 2), 2, 0.2, "exact").blocks() == \
        [list(range(6)), list(range(6, 12))]
    assert compute_k2ecc(gen_cyc(8, 2), 2, 0.2, "exact").n_blocks == 8
    assert compute_k2ecc(gen_kn(7), 2, 0.2, "exact").n_blocks == 1


def test_pipeline_modes_agree_on_blocks(rng):
    g = gen_blocks(6, 6, 2)
    want = ecc_components(g, 4)
    for mode in ("rand", "exact"):
        assert compute_k2ecc(g, 2, 0.2, mode, rng) == want


def test_single_requires_ordinary():
    g = gen_kn(4)
    for v in g.vertices():
        g.kind[v] = AUXILIARY
    with pytest.raises(GraphError):
        compute_partition_single(g, 1, 0.2, "exact")


def test_empty_graph_is_rejected():
    for run in (lambda g: decompose_kecc(g, 2, 0.2, "det"),
                lambda g: compute_k2ecc(g, 2, 0.2, "exact")):
        with pytest.raises(GraphError, match="graph has no live vertex"):
            run(Digraph())


def some_good_partition(g):
    """The good partition at lambda(v, 0) + 2 for the v least connected to
    0, which runs the recursion past its first cut."""
    lam, v = min((lambda_bounded(g, v, 0, 9), v) for v in g.vertices()[1:])
    return good_partition(flow_state(g, v, 0, lam + 2), lam + 2)


@pytest.mark.parametrize("run", [
    lambda g: compute_k2ecc(g, 2, 0.2, "rand", random.Random(1)),
    lambda g: compute_k2ecc(g, 2, 0.2, "exact"),
    lambda g: decompose_kecc(g, 2, 0.2, "rand", random.Random(1)),
    lambda g: compute_partition_single(g, 1, 0.2, "rand", random.Random(1)),
    lambda g: ecc_naive(g, 3),
    some_good_partition,
], ids=["k2ecc-rand", "k2ecc-exact", "decompose",
        "partition-single", "ecc-naive", "good-partition"])
def test_caller_graphs_are_never_mutated(run):
    # reverses share their graph's arrays, so a write anywhere on a reverse
    # of the input would reach the caller's graph
    rk = gen_random_kec(40, 2, 120, 3)
    rk.delete_edge(rk.edges()[-1])  # an extra arc: both cycles stay
    for g in (rk, gen_chain(4, 5, 2)):
        before = copy.deepcopy(arrays(g))
        run(g)
        assert arrays(g) == before


def test_single_s_override():
    g = gen_kn(5)
    part = compute_partition_single(g, 2, 0.2, "exact", s=3)
    assert part.n_blocks == 1
    with pytest.raises(GraphError):
        compute_partition_single(g, 2, 0.2, "exact", s=99)


def test_one_sided_guarantee_random(rng):
    # connected ordinary pairs are never separated, in any mode; rand mode
    # runs twice, on successive draws of one rng
    for _ in range(8):
        n = rng.randrange(4, 9)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, 2 * n),
                           rng.randrange(10**6))
        for mode in ("rand", "rand", "exact"):
            part = compute_k2ecc(g, k, 0.3, mode, rng)
            report = verify_partition(g, part, k + 2)
            assert report.ok, report.false_separations


def test_4ecc_prepared_all_ordinary_k6():
    assert compute_4ecc_prepared(gen_kn(6), 0.2, "exact").n_blocks == 1


def test_4ecc_prepared_chain(rng):
    g = gen_chain(2, 5, 1)
    part = compute_4ecc_prepared(g, 0.2, "rand", rng)
    assert part.blocks() == [list(range(5)), list(range(5, 10))]
    assert part == ecc_components(g, 4)


def test_4ecc_prepared_planted(rng):
    g, _v, _s = planted_deficient()
    part = compute_4ecc_prepared(g, 0.2, "rand", rng)
    report = verify_partition(g, part, 4)
    assert report.ok


@pytest.mark.parametrize("mode", ["rand", "exact"])
def test_lambda_below_k_raises_in_every_mode(mode):
    # exact mode runs no sampling pass; the small-set pass's lambdas are
    # checked as well; lambda(1, 0) is the first one read
    with pytest.raises(ConnectivityError, match=r"^graph is not "
                       r"2-edge-connected: lambda\(1,0\)=1$"):
        compute_partition_single(gen_cyc(6, 1), 2, 0.2, mode,
                                 random.Random(0))


def _low_fixture():
    """K5 on the ordinary vertices 0..4 plus an auxiliary vertex 5 with one
    arc out, to 0, and three in: lambda(5, s) = 1 for every s != 5."""
    g = gen_kn(5)
    x = g.add_vertex(AUXILIARY)
    g.add_edge(x, 0)
    for u in (1, 2, 3):
        g.add_edge(u, x)
    return g


def test_4ecc_prepared_accepts_lambda_one():
    # the same seed draws the same tails in both calls, and at this seed
    # the sampling pass draws the auxiliary vertex, which only low accepts
    g = _low_fixture()
    part = compute_4ecc_prepared(g, 0.2, "rand", random.Random(1))
    assert part.restrict(range(5)).n_blocks == 1
    with pytest.raises(ConnectivityError, match=r"^graph is not "
                       r"2-edge-connected: lambda\(5,0\)=1$"):
        compute_partition_single(g, 2, 0.2, "rand", random.Random(1))


def test_sampling_pass_dispatch_counts(rng):
    stats = {}
    g = gen_blocks(6, 6, 2)
    compute_partition_single(g, 2, 0.2, "rand", rng, stats=stats)
    recs = stats["samples"]
    assert len(recs) == 2  # one per direction
    n_ord = g.n_live
    for rec in recs:
        assert rec["draws"] == sample_count(n_ord, 0.2)


def test_separation_attribution(rng):
    # the separation of every oracle-separated pair is attributable to the
    # small-set pass or to some good partition of a sampled-in-set vertex
    g, v_planted, s = planted_deficient()
    k = 2
    m = g.m_live
    n_ord = len(g.ordinary_vertices())
    small_cap = max(1, math.ceil(m / math.sqrt(n_ord)))
    sources = []
    for h in (g, g.reversed()):
        universe = tuple(sorted(h.vertices()))
        results = {}
        for u in h.ordinary_vertices():
            if u == s:
                continue
            results[u] = local_search_mset(h, u, s, k + 1, small_cap)
        sources.append(partition_from_msets(results, universe,
                                            h.ordinary_vertices()))
        for u in h.vertices():
            if u == s:
                continue
            if k <= lambda_bounded(h, u, s, k + 2) <= k + 1:
                fs = flow_state(h, u, s, k + 2)
                sources.append(good_partition(fs, k + 2))
    ordinary = g.ordinary_vertices()
    for i, a in enumerate(ordinary):
        for b in ordinary[i + 1:]:
            if not mutually_connected(g, a, b, k + 2):
                assert any(not p.same_block(a, b) for p in sources), (a, b)


def test_large_set_sampling_hits(rng):
    # a set with volume above m/sqrt(n) is hit by some sampled tail in
    # almost every trial
    g = gen_blocks(4, 12, 2)
    s = 1
    big = mset_oracle(g, 4, s, 2)  # the whole B side, huge volume
    assert big is not BOTTOM
    m = g.m_live
    n_ord = g.n_live
    assert vol_of(g, big) > m / math.sqrt(n_ord)
    edges = g.edges()
    delta = 0.2
    trials, hits = 200, 0
    for t in range(trials):
        rng_t = sub_rng(t, "sampling-hits")
        draws = sample_count(n_ord, delta)
        tails = {g.tail(edges[rng_t.randrange(len(edges))])
                 for _ in range(draws)}
        if tails & big:
            hits += 1
    sigma = math.sqrt(trials * delta * (1 - delta))
    assert hits >= trials * (1 - delta) - 3 * sigma


def test_bad_mode_and_delta():
    g = gen_kn(4)
    with pytest.raises(GraphError):
        compute_partition_single(g, 1, 0.2, "bogus")
    with pytest.raises(GraphError):
        compute_partition_single(g, 1, 1.5, "exact")
    with pytest.raises(GraphError):
        compute_partition_single(g, 1, 0.2, "rand")  # rng missing


def test_k_below_one_is_rejected():
    # every driver names the bad k, whether or not the graph is strongly
    # connected; a bool is not a k either
    strong, weak = gen_kn(4), Digraph()
    weak.add_vertices(2)
    weak.add_edge(0, 1)
    for g in (strong, weak):
        for k in (0, -1, True):
            for call in (
                    lambda: compute_k2ecc(g, k, 0.2, "exact"),
                    lambda: compute_partition_single(g, k, 0.2, "exact"),
                    lambda: decompose_kecc(g, k, 0.2, "det")):
                with pytest.raises(GraphError,
                                   match=rf"k must be .*, got {k!r}$"):
                    call()


def test_det_mode_without_rng_is_rejected(monkeypatch):
    # the partitions take rand and exact mode only, with an rng or without,
    # and the pipeline says so before it decomposes anything; rand mode
    # still needs an rng, and the decomposition keeps its det mode
    decomposed = []
    monkeypatch.setattr(drv, "decompose_kecc",
                        lambda *args, **kwargs: decomposed.append(args))
    g = gen_blocks(6, 6, 2)
    named = re.escape("mode must be one of ('rand', 'exact'), got 'det'")
    for rng in (None, random.Random(0)):
        for call in (lambda: compute_k2ecc(g, 2, 0.25, "det", rng),
                     lambda: compute_partition_single(g, 2, 0.25, "det", rng),
                     lambda: compute_4ecc_prepared(g, 0.25, "det", rng)):
            with pytest.raises(GraphError, match=f"^{named}$"):
                call()
    with pytest.raises(GraphError, match="^rand mode needs an rng$"):
        compute_k2ecc(g, 2, 0.25, "rand")
    assert not decomposed
    pieces = decompose_kecc(g, 2, 0.25, "det")
    assert sorted(sorted(p.ordinary) for p in pieces) == [
        list(range(6)), list(range(6, 12))]


PROPERTY = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)


@st.composite
def prepared_graphs(draw):
    """Small graphs whose vertices are (k+1)-edge-connected, with planted
    structure: unions of k+1 Hamiltonian cycles with a few extra arcs, or
    cycles of complete blocks joined by one arc each way (2-connected)."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 2))
        n = draw(st.integers(3, 8))
        return gen_random_kec(n, k + 1, draw(st.integers(0, 2 * n)),
                              draw(st.integers(0, 10**6))), k
    return gen_chain(draw(st.integers(2, 4)), draw(st.integers(3, 5)), 1), 1


@PROPERTY
@given(prepared_graphs(), st.integers(0, 2**32 - 1))
def test_partition_does_not_depend_on_root(case, seed):
    h, k = case
    want = ecc_components(h, k + 2)
    for r in h.ordinary_vertices():
        assert compute_partition_single(h, k, 0.2, "exact", s=r) == want, r
    with strongly_connected_audit():
        part = compute_partition_single(h, k, 0.2, "rand",
                                        random.Random(seed))
    report = verify_partition(h, part, k + 2)
    assert report.ok, report.false_separations


@PROPERTY
@given(block_rings())
def test_k2ecc_exact_equals_oracle_on_block_rings(g):
    assert compute_k2ecc(g, 2, 0.25, "exact") == ecc_components(g, 4)


@st.composite
def marked_block_rings(draw):
    """block_rings with a drawn set of vertices marked auxiliary, at least
    one vertex left ordinary."""
    g = draw(block_rings())
    n = g.n_live
    aux = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    g.set_ordinary(v for v in g.vertices() if v not in aux)
    return g


@PROPERTY
@given(marked_block_rings(), st.integers(0, 2**32 - 1))
def test_k2ecc_partitions_the_ordinary_vertices(g, seed):
    # the ordinary vertices carry the component claims, and only they are
    # partitioned: exact mode gives their classes, rand mode splits no
    # 4-connected pair of them
    ordinary = g.ordinary_vertices()
    want = ecc_components(g, 4).restrict(ordinary)
    assert compute_k2ecc(g, 2, 0.25, "exact") == want
    part = compute_k2ecc(g, 2, 0.25, "rand", random.Random(seed))
    assert part.universe == tuple(ordinary)
    for block in want.blocks():
        assert len({part.label[v] for v in block}) == 1, block


@PROPERTY
@given(block_rings())
def test_4ecc_prepared_exact_equals_oracle_on_pieces(g):
    # the prepared driver's contract on every piece of a decomposition:
    # exact mode gives the 4-connectivity classes of the ordinary vertices
    for piece in decompose_kecc(g, 2, 0.25, "det"):
        h = piece.graph
        ordinary = h.ordinary_vertices()
        part = compute_4ecc_prepared(h, 0.25, "exact")
        assert part.restrict(ordinary) == \
            ecc_components(h, 4).restrict(ordinary)


@PROPERTY
@given(block_rings(), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_k2ecc_splits_no_4_connected_pair_on_block_rings(g, seed, seed2):
    # the good partitions of the pieces must see strongly connected graphs,
    # on two independent sampling streams
    for stream in (seed, seed2):
        with strongly_connected_audit():
            part = compute_k2ecc(g, 2, 0.25, "rand", random.Random(stream))
        report = verify_partition(g, part, 4)
        assert report.ok, report.false_separations


def _root_fixture(aux=False):
    """K4 on 1..4 plus vertex 0 linked to 1 and 2 each way, so that at k=1
    vertex 0 has min(in, out)-degree k+1 and 1 and 2 tie at the top; with
    aux, an auxiliary vertex 5 linked twice each way to all of 1..4 has the
    highest degree of all."""
    g = Digraph()
    g.add_vertices(5)
    for u in range(1, 5):
        for v in range(1, 5):
            if u != v:
                g.add_edge(u, v)
    for u in (1, 2):
        g.add_edge(0, u)
        g.add_edge(u, 0)
    if aux:
        x = g.add_vertex(AUXILIARY)
        for u in range(1, 5):
            g.add_edge(x, u, copies=2)
            g.add_edge(u, x, copies=2)
    return g


@pytest.mark.parametrize("mode", ["rand", "exact"])
@pytest.mark.parametrize("aux,s,want", [(False, None, 1), (True, None, 1),
                                        (False, 3, 3), (True, 0, 0)])
def test_default_root_is_best_connected_ordinary(monkeypatch, mode, aux, s,
                                                 want):
    sinks = []

    def recording(fn):
        def wrapped(g, src, dst, *args, **kwargs):
            sinks.append(dst)
            return fn(g, src, dst, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(drv, "lambda_bounded", recording(drv.lambda_bounded))
    monkeypatch.setattr(drv, "flow_state", recording(drv.flow_state))
    g = _root_fixture(aux)
    compute_partition_single(g, 1, 0.2, mode, random.Random(0), s=s)
    assert sinks and set(sinks) == {want}


def _degree(h):
    return lambda v: min(len(h.inn[v]), len(h.out[v]))


@st.composite
def hub_marked_graphs(draw):
    """prepared_graphs with the vertex of largest min(in, out)-degree, the
    smallest id among equals, marked auxiliary: the ordinary vertices stay
    (k+1)-edge-connected, and the default root must skip that vertex."""
    h, k = draw(prepared_graphs())
    hub = max(h.vertices(), key=_degree(h))
    h.set_ordinary(v for v in h.vertices() if v != hub)
    return h, k


@PROPERTY
@given(hub_marked_graphs())
def test_default_root_skips_an_auxiliary_hub(case):
    h, k = case
    sinks = []
    flow = drv.flow_state

    def recording(g, src, dst, *args):
        sinks.append(dst)
        return flow(g, src, dst, *args)

    with mock.patch.object(drv, "flow_state", recording):
        part = compute_partition_single(h, k, 0.2, "exact")
    ordinary = h.ordinary_vertices()
    assert set(sinks) == {max(ordinary, key=_degree(h))}
    want = ecc_components(h, k + 2)
    assert part.restrict(ordinary) == want.restrict(ordinary)


@pytest.mark.parametrize("mode,kernel,other", [
    ("exact", "flow_state", "lambda_bounded"),
    ("rand", "lambda_bounded", "flow_state")])
def test_one_flow_per_small_set_vertex(monkeypatch, mode, kernel, other):
    # each direction's small-set pass runs one flow into certified sinks per
    # vertex other than the root, and reads both lambda and, in exact mode,
    # the set off it; with no auxiliary vertex the sampling pass finds
    # every tail's lambda cached.  The only other flows are rand mode's good
    # partitions: one into the same sinks per sampled vertex below k+2
    calls = {kernel: [], other: []}
    for name, seen in calls.items():
        fn = getattr(drv, name)
        monkeypatch.setattr(
            drv, name,
            lambda *args, fn=fn, seen=seen: seen.append(args) or fn(*args))
    h = gen_random_kec(30, 3, 60, 1)
    for g in (h, h.reversed()):  # some vertices are certified, some not
        assert {lambda_bounded(g, v, 19, 4) for v in range(30)
                if v != 19} == {3, 4}
    compute_partition_single(h, 2, 0.2, mode, random.Random(0), s=19)
    assert len(calls[kernel]) == 2 * (h.n_live - 1)
    assert all(len(args) == 5 for args in calls[kernel] + calls[other])
    if mode == "exact":
        assert not calls[other]
    else:
        assert calls[other]
        assert len({(id(g), v) for g, v, *_ in calls[other]}) == len(
            calls[other])
        for g, v, s, cap, _sinks in calls[other]:
            assert cap == 4 and lambda_bounded(g, v, s, cap) < cap


@pytest.mark.parametrize("seed", [1, 2], ids=["rand", "rand-2"])
def test_one_flow_per_auxiliary_tail(monkeypatch, seed):
    # a sampled auxiliary tail, which the small-set pass skips, gets one
    # flow per direction: the one that reads its lambda is the one its good
    # partition reads.  The pieces of a block chain hold auxiliary vertices,
    # contracted blocks, and some of them sit below k+2; each seed is one
    # sampling stream
    flows = []
    for name in ("flow_state", "lambda_bounded"):
        fn = getattr(drv, name)
        monkeypatch.setattr(
            drv, name,
            lambda g, v, *args, fn=fn: flows.append((g, v)) or fn(g, v, *args))
    good = []
    real_good = drv.good_partition
    monkeypatch.setattr(
        drv, "good_partition",
        lambda fs, t: good.append(fs) or real_good(fs, t))
    pieces = decompose_kecc(gen_chain(8, 6, 1), 2, 0.2, "det")
    rng = random.Random(seed)
    for piece in pieces:
        compute_partition_single(piece.graph, 2, 0.2, "rand", rng)
    aux = Counter((id(g), v) for g, v in flows if g.kind[v] == AUXILIARY)
    assert aux and max(aux.values()) == 1
    assert any(fs.overlay.g.kind[fs.source] == AUXILIARY for fs in good)
