"""Single-graph driver and the end-to-end component pipeline."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kecc.driver as drv
from kecc.digraph import AUX_OTHER, Digraph, GraphError, vol_of
from kecc.decompose import decompose_kecc
from kecc.driver import (compute_4ecc_prepared, compute_k2ecc,
                         compute_partition_single, sample_count)
from kecc.flow import lambda_bounded
from kecc.gen import (gen_blocks, gen_chain, gen_cyc, gen_kn, gen_random_kec,
                      sub_rng)
from kecc.oracle import (BOTTOM, ecc_components, mset_oracle,
                         mutually_connected, verify_partition)
from kecc.partitions import (good_partition_deficient, good_partition_full,
                             partition_from_msets)
from kecc.local_search import local_search_mset

from conftest import planted_deficient


def test_sample_count_formula():
    assert sample_count(100, 0.5, "det") == 87
    assert sample_count(100, 0.5, "rand") == math.ceil(
        10 * math.log2(800))


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
    for mode in ("det", "rand", "exact"):
        assert compute_k2ecc(g, 2, 0.2, mode, rng) == want


def test_single_requires_ordinary():
    g = gen_kn(4)
    for v in g.vertices():
        g.kind[v] = AUX_OTHER
    with pytest.raises(GraphError):
        compute_partition_single(g, 1, 0.2, "exact")


def test_single_s_override():
    g = gen_kn(5)
    part = compute_partition_single(g, 2, 0.2, "exact", s=3)
    assert part.n_blocks == 1
    with pytest.raises(GraphError):
        compute_partition_single(g, 2, 0.2, "exact", s=99)


def test_one_sided_guarantee_random(rng):
    # connected ordinary pairs are never separated, in any mode
    for _ in range(8):
        n = rng.randrange(4, 9)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, 2 * n),
                           rng.randrange(10**6))
        for mode in ("det", "rand"):
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


def test_sampling_pass_dispatch_counts(rng):
    stats = {}
    g = gen_blocks(6, 6, 2)
    compute_partition_single(g, 2, 0.2, "rand", rng, stats=stats)
    recs = stats["samples"]
    assert len(recs) == 2  # one per direction
    n_ord = g.n_live
    for rec in recs:
        assert rec["draws"] == sample_count(n_ord, 0.2, "rand")


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
            lam = lambda_bounded(h, u, s, k + 2)
            if lam == k + 1:
                sources.append(good_partition_full(h, u, s, k))
            elif lam == k:
                sources.append(good_partition_deficient(h, u, s, k))
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
        draws = sample_count(n_ord, delta, "rand")
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
    # det mode's sampling pass draws edges too, so it needs an rng; the
    # pipeline says so before it decomposes anything
    decomposed = []
    monkeypatch.setattr(drv, "decompose_kecc",
                        lambda *args, **kwargs: decomposed.append(args))
    g = gen_blocks(6, 6, 2)
    with pytest.raises(GraphError, match="needs an rng"):
        compute_k2ecc(g, 2, 0.25, "det")
    assert not decomposed
    with pytest.raises(GraphError, match="needs an rng"):
        compute_partition_single(g, 2, 0.25, "det")


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
    part = compute_partition_single(h, k, 0.2, "rand", random.Random(seed))
    report = verify_partition(h, part, k + 2)
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
        x = g.add_vertex(AUX_OTHER)
        for u in range(1, 5):
            g.add_edge(x, u, copies=2)
            g.add_edge(u, x, copies=2)
    return g


@pytest.mark.parametrize("mode", ["det", "rand", "exact"])
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
