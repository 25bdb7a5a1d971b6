"""Acceptance suite: one test per criterion, one pass/fail line printed each.

The corpus is 200 seeded graphs over four generator models with n <= 36 and
k in {1, 2, 3}.  Oracle partitions are computed once and shared.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

import kecc.local_search
from kecc.decompose import (DecompositionError, decompose_kecc,
                            verify_decomposition)
from kecc.digraph import ReversalOverlay, out_of, vol_of
from kecc.driver import compute_k2ecc, sample_count
from kecc.flow import pq_graph
from kecc.gen import (gen, gen_blocks, gen_chain, gen_cyc, gen_kn,
                      gen_random_kec, sub_rng)
from kecc.local_search import randomized_local_search_mset
from kecc.oracle import (BOTTOM, ecc_components, enumerate_separators,
                         lambda_oracle, mset_oracle)

from conftest import (closed_sets, random_strongly_connected, random_walk,
                      recording_budget)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {title}")
        raise
    print(f"\n[PASS] criterion {number}: {title}")


def build_corpus():
    graphs = []
    for i in range(40):
        n = 4 + (3 * i) % 20
        k = 1 + i % 3
        graphs.append((f"cyc-{n}-{k}", gen_cyc(n, k), k))
    for i in range(50):
        p = 3 + i % 8
        q = 3 + (2 * i) % 8
        k = 1 + i % min(3, min(p, q) - 1)  # block interiors cap connectivity
        graphs.append((f"blocks-{p}-{q}-{k}-{i}", gen_blocks(p, q, k), k))
    for i in range(50):
        bl = 2 + i % 2
        size = 3 + i % 4
        k = 1 + i % min(3, size - 1)
        graphs.append((f"chain-{bl}-{size}-{k}-{i}", gen_chain(bl, size, k),
                       k))
    for i in range(60):
        n = 8 + (5 * i) % 29
        k = 1 + i % 3
        extra = (7 * i) % (2 * n)
        graphs.append((f"rkec-{n}-{k}-{i}",
                       gen_random_kec(n, k, extra, seed=i), k))
    assert len(graphs) == 200
    for _name, g, _k in graphs:
        assert g.n_live <= 36
    return graphs


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def oracle_parts(corpus):
    return {name: ecc_components(g, k + 2) for name, g, k in corpus}


@pytest.fixture(scope="module", autouse=True)
def budget_audit():
    """Record every bounded-DFS budget across the whole acceptance run."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kecc.local_search, "SearchBudget", recording_budget(log))
        yield log


def _ordinary_restriction_equal(got, want, ordinary):
    return got.restrict(ordinary) == want.restrict(ordinary)


def test_c1_exact_mode_oracle_equivalence(corpus, oracle_parts):
    with criterion(1, "exact mode equals the oracle on 200 graphs"):
        start = time.perf_counter()
        for name, g, k in corpus:
            got = compute_k2ecc(g, k, 0.2, "exact")
            ordinary = g.ordinary_vertices()
            assert _ordinary_restriction_equal(got, oracle_parts[name],
                                               ordinary), name
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"criterion 1 budget exceeded: {elapsed:.1f}s"


def test_c2_one_sided_safety(corpus, oracle_parts):
    with criterion(2, "randomized mode never separates connected pairs"):
        retried = 0
        for idx, (name, g, k) in enumerate(corpus):
            part = None
            for attempt in range(3):
                rng = sub_rng(1000 + idx, f"c2-{attempt}")
                try:
                    part = compute_k2ecc(g, k, 0.2, "rand", rng)
                    break
                except DecompositionError:
                    retried += 1
            assert part is not None, f"{name}: repeated decomposition failure"
            truth = oracle_parts[name]
            for block in truth.blocks():
                anchor = block[0]
                for v in block[1:]:
                    assert part.same_block(anchor, v), (name, anchor, v)
        assert retried <= 10


def test_c3_two_sided_failure_rate():
    with criterion(3, "missed-separation rate within the binomial gate"):
        g = gen_blocks(6, 6, 2)
        truth = ecc_components(g, 4)
        trials = 200
        delta = 0.2
        bad = 0
        for t in range(trials):
            rng = sub_rng(t, "c3")
            try:
                part = compute_k2ecc(g, 2, delta, "rand", rng)
            except DecompositionError:
                bad += 1
                continue
            if part.restrict(g.ordinary_vertices()) != \
                    truth.restrict(g.ordinary_vertices()):
                bad += 1
        sigma = math.sqrt(trials * delta * (1 - delta))
        assert bad <= trials * delta + 3 * sigma, bad


def test_c4_randomized_single_shot(corpus):
    with criterion(4, "single-shot success >= 0.45 and unconditional "
                      "soundness"):
        g = gen_cyc(6, 2)
        want = mset_oracle(g, 1, 0, 2)
        assert vol_of(g, want) <= 12
        rng = random.Random(404)
        hits = 0
        trials = 1000
        for _ in range(trials):
            res = randomized_local_search_mset(g, 1, 0, 2, 12, rng)
            if res.found:
                assert res.members == want
                hits += 1
        assert hits >= 450, hits
        # soundness across the corpus: any Found equals the oracle set
        sweep_rng = random.Random(405)
        for name, h, k in corpus[::5]:
            verts = sorted(h.vertices())
            for _ in range(4):
                v, s = sweep_rng.sample(verts, 2)
                level = sweep_rng.randrange(1, k + 2)
                if lambda_oracle(h, v, s, level) < level:
                    continue
                res = randomized_local_search_mset(
                    h, v, s, level, sweep_rng.randrange(1, h.m_live + 1),
                    sweep_rng)
                if res.found:
                    want = mset_oracle(h, v, s, level)
                    assert want is not BOTTOM
                    assert res.members == want, (name, v, s)


def test_c5_find_out_paths_budget(budget_audit, rng):
    with criterion(5, "bounded DFS never exceeds (2k+1)(delta+1)"):
        from kecc.local_search import find_out_paths
        for _ in range(150):
            g = random_strongly_connected(rng, rng.randrange(3, 10),
                                          rng.randrange(0, 16))
            v, s = rng.sample(range(g.n_live), 2)
            find_out_paths(ReversalOverlay(g), v, s, rng.randrange(1, 4),
                           rng.randrange(1, 10))
        assert budget_audit, "no budgets captured"
        over = [b for b in budget_audit if b.explored > b.limit]
        assert not over, f"{len(over)} budget violations"


def test_c6_pq_characterization(rng):
    with criterion(6, "min-cut DAG closed sets equal brute-force "
                      "separator enumeration"):
        cases = [gen_cyc(4, 1), gen_cyc(5, 2), gen_kn(4), gen_kn(5)]
        for _ in range(100):
            cases.append(random_strongly_connected(
                rng, rng.randrange(3, 7), rng.randrange(0, 9)))
        for g in cases:
            verts = sorted(g.vertices())
            for v in verts:
                for s in verts:
                    if v == s:
                        continue
                    lam = lambda_oracle(g, v, s, g.m_live + 1)
                    closed = {frozenset(x)
                              for x in closed_sets(pq_graph(g, v, s))}
                    assert closed == set(enumerate_separators(g, v, s, lam))


def test_c7_decomposition_contract(corpus):
    with criterion(7, "decomposition bullets, size gates and failure "
                      "detection"):
        import kecc.decompose as dc
        from kecc.local_search import EMPTY
        verified = 0
        for name, g, k in corpus:
            pieces = decompose_kecc(g, k, 0.2, "det")
            n, m = g.n_live, g.m_live
            total_v = sum(p.graph.n_live for p in pieces)
            total_e = sum(p.graph.m_live for p in pieces)
            assert total_v <= 5 * n, name
            assert total_e <= 4 * (m + k * n), name
            if n <= 16:
                report = verify_decomposition(g, pieces, k)
                assert report.ok, (name, report.failures)
                verified += 1
        assert verified >= 80
        # injected corruption: piece tampering is caught by the verifier
        g = gen_blocks(5, 5, 2)
        pieces = decompose_kecc(g, 2, 0.2, "det")
        pieces[0].ordinary.append(pieces[1].ordinary.pop())
        assert not verify_decomposition(g, pieces, 2).ok
        # injected search failure: reported, never silently wrong
        real = dc.local_search_mset
        try:
            dc.local_search_mset = lambda *a, **kw: EMPTY
            with pytest.raises(DecompositionError):
                decompose_kecc(gen_blocks(5, 5, 2), 2, 0.2, "det")
        finally:
            dc.local_search_mset = real


def test_c8_reversal_lemma_exactness(rng):
    with criterion(8, "path reversal shifts (vol, out) by the endpoint rule"):
        from conftest import random_digraph
        cases = 0
        while cases < 10_000:
            g = random_digraph(rng, rng.randrange(3, 9), rng.randrange(3, 16))
            members = set(rng.sample(range(g.n_slots()),
                                     rng.randrange(1, g.n_slots())))
            ov = ReversalOverlay(g)
            start = rng.choice(sorted(members))
            walk = random_walk(g, ov, rng, start, max_len=10)
            if not walk:
                continue
            before = (vol_of(g, members, ov), out_of(g, members, ov))
            end = ov.head(walk[-1])
            ov.reverse_path(walk)
            after = (vol_of(g, members, ov), out_of(g, members, ov))
            delta = (after[0] - before[0], after[1] - before[1])
            if end in members:
                assert delta == (0, 0), (walk, members)
            else:
                assert delta == (-1, -1), (walk, members)
            cases += 1


def test_c9_scaling_smoke():
    with criterion(9, "n=2000 randomized pipeline under 60 s with exact "
                      "sample counts"):
        g = gen_random_kec(2000, 2, 12000, seed=1)
        assert g.n_live == 2000 and g.m_live == 16000
        rng = sub_rng(1, "c9")
        stats = {}
        start = time.perf_counter()
        compute_k2ecc(g, 2, 0.2, "rand", rng, stats=stats)
        elapsed = time.perf_counter() - start
        for rec in stats["samples"]:
            assert rec["draws"] == sample_count(rec["n_ord"], rec["delta"],
                                                rec["mode"])
            assert rec["draws"] == math.ceil(
                math.sqrt(rec["n_ord"])
                * math.log2(4 * rec["n_ord"] / rec["delta"]))
        assert elapsed < 60, f"{elapsed:.1f}s"
        print(f"\n    scaling smoke: {elapsed:.1f}s, "
              f"{stats['pieces']} pieces")
