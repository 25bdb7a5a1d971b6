"""Single-graph driver and the end-to-end component pipeline."""

import math
import random

import pytest

from kecc.digraph import AUX_OTHER, GraphError
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
    assert big.vol > m / math.sqrt(n_ord)
    edges = g.edges()
    delta = 0.2
    trials, hits = 200, 0
    for t in range(trials):
        rng_t = sub_rng(t, "sampling-hits")
        draws = sample_count(n_ord, delta, "rand")
        tails = {g.tail(edges[rng_t.randrange(len(edges))])
                 for _ in range(draws)}
        if tails & big.members:
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
