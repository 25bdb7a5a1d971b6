"""Deterministic and randomized minimal-out-set searches."""

import math
import random

import pytest

import kecc.local_search as ls
from kecc.digraph import Digraph, GraphError, ReversalOverlay
from kecc.gen import gen_cyc, gen_kn
from kecc.local_search import (EMPTY, SearchBudget, amplified_mset,
                               find_out_paths, local_search_mset,
                               randomized_local_search_mset)
from kecc.oracle import BOTTOM, lambda_oracle, mset_oracle

from conftest import fingerprint, random_strongly_connected


def test_find_out_paths_immediate_sink():
    g = Digraph()
    g.add_vertices(2)
    (e,) = g.add_edge(0, 1)
    paths = find_out_paths(ReversalOverlay(g), 0, 1, 1, 5)
    assert paths == [[e]]


def test_find_out_paths_escapes_small_set():
    g = gen_kn(5)
    ov = ReversalOverlay(g)
    paths = find_out_paths(ov, 1, 0, 4, 4)
    assert paths
    ends = []
    for p in paths:
        end = 1 if not p else ov.head(p[-1])
        ends.append(end)
    assert any(end != 1 for end in ends)


def test_find_out_paths_budget_instrumented(rng, monkeypatch):
    # adjacency is read only as far as the budget charges for it
    read = [0]
    succ = ReversalOverlay.succ

    def counted(ov, x):
        for entry in succ(ov, x):
            read[0] += 1
            yield entry

    monkeypatch.setattr(ReversalOverlay, "succ", counted)
    with SearchBudget.capture() as log:
        for _ in range(60):
            g = random_strongly_connected(rng, rng.randrange(3, 9),
                                          rng.randrange(0, 14))
            v, s = rng.sample(range(g.n_live), 2)
            k = rng.randrange(1, 4)
            delta = rng.randrange(1, 12)
            find_out_paths(ReversalOverlay(g), v, s, k, delta)
    assert log
    assert all(b.explored <= b.limit for b in log)
    assert read[0] == sum(b.explored for b in log)


def test_find_out_paths_returns_at_most_2k(rng):
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randrange(3, 8),
                                      rng.randrange(0, 10))
        v, s = rng.sample(range(g.n_live), 2)
        k = rng.randrange(1, 4)
        paths = find_out_paths(ReversalOverlay(g), v, s, k, 3)
        assert len(paths) <= 2 * k


def test_local_search_k5_found():
    g = gen_kn(5)
    res = local_search_mset(g, 1, 0, 4, 20)
    assert res.found
    assert res.cut.sorted() == [1]
    assert res.cut.out_count == 4


def test_local_search_k5_small_budget_stays_sound():
    # vol({1}) = 4 > 3, so Empty is allowed; but after the path reversals the
    # set's residual volume drops to zero, so the search may legitimately
    # return it -- any non-empty answer must be exactly the minimal set
    g = gen_kn(5)
    res = local_search_mset(g, 1, 0, 4, 3)
    if res.found:
        assert res.cut.sorted() == [1]


def test_local_search_no_separator_is_empty():
    g = gen_kn(4)
    for delta in (1, 5, 50):
        assert not local_search_mset(g, 1, 0, 2, delta).found


def test_local_search_completeness_sweep(rng):
    # wherever the minimal set exists and its volume fits the budget, the
    # deterministic search must find exactly it
    checked = 0
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randrange(3, 9),
                                      rng.randrange(0, 12))
        v, s = rng.sample(range(g.n_live), 2)
        lam = lambda_oracle(g, v, s, 5)
        for k in range(1, min(lam, 3) + 1):
            want = mset_oracle(g, v, s, k) if k == lam else BOTTOM
            if want is BOTTOM:
                res = local_search_mset(g, v, s, k, 4 * g.m_live)
                assert not res.found
            else:
                res = local_search_mset(g, v, s, k, want.vol)
                assert res.found and res.cut.members == want.members
                checked += 1
    assert checked > 20


def test_local_search_soundness_sweep(rng):
    for _ in range(80):
        g = random_strongly_connected(rng, rng.randrange(3, 9),
                                      rng.randrange(0, 12))
        v, s = rng.sample(range(g.n_live), 2)
        lam = lambda_oracle(g, v, s, 4)
        k = rng.randrange(1, lam + 1)
        delta = rng.randrange(1, g.m_live + 2)
        res = local_search_mset(g, v, s, k, delta)
        if res.found:
            want = mset_oracle(g, v, s, k)
            assert want is not BOTTOM and res.cut.members == want.members


def test_base_graph_untouched(rng):
    g = random_strongly_connected(rng, 7, 9)
    base = fingerprint(g)
    local_search_mset(g, 1, 0, 2, 30)
    randomized_local_search_mset(g, 1, 0, 2, 30, rng)
    assert fingerprint(g) == base


def test_randomized_cycle_success_rate():
    g = gen_cyc(6, 2)
    rng = random.Random(1234)
    hits = 0
    for _ in range(1000):
        res = randomized_local_search_mset(g, 1, 0, 2, 12, rng)
        if res.found:
            assert res.cut.sorted() == [1]
            hits += 1
    assert hits >= 500


def test_randomized_soundness_random(rng):
    for _ in range(120):
        g = random_strongly_connected(rng, rng.randrange(3, 8),
                                      rng.randrange(0, 10))
        v, s = rng.sample(range(g.n_live), 2)
        k = rng.randrange(1, 4)
        if lambda_oracle(g, v, s, k) < k:
            continue
        res = randomized_local_search_mset(g, v, s, k,
                                           rng.randrange(1, g.m_live + 2), rng)
        if res.found:
            want = mset_oracle(g, v, s, k)
            assert want is not BOTTOM and res.cut.members == want.members


def test_randomized_above_level_stays_sound(rng):
    # lambda(v, s) > k: the search may return Empty or nothing else
    g = gen_kn(5)
    for _ in range(50):
        res = randomized_local_search_mset(g, 1, 0, 2, 40, rng)
        assert not res.found


def test_amplified_repetition_counts(monkeypatch):
    calls = []

    def fake(g, v, s, k, delta, rng):
        calls.append(1)
        return EMPTY, True

    monkeypatch.setattr(ls, "_randomized_search", fake)
    amplified_mset(gen_cyc(4, 1), 1, 0, 1, 5, 0.5, None)
    assert len(calls) == 1
    calls.clear()
    amplified_mset(gen_cyc(4, 1), 1, 0, 1, 5, 1 / 1024, None)
    assert len(calls) == 10


def test_amplified_deterministic_short_circuit(monkeypatch):
    calls = []

    def fake(g, v, s, k, delta, rng):
        calls.append(1)
        return EMPTY, False  # used no randomness: repeats are pointless

    monkeypatch.setattr(ls, "_randomized_search", fake)
    amplified_mset(gen_cyc(4, 1), 1, 0, 1, 5, 1 / 1024, None)
    assert len(calls) == 1


def test_amplified_failure_rate():
    g = gen_cyc(6, 2)
    rng = random.Random(77)
    fails = 0
    trials = 2000
    for _ in range(trials):
        if not amplified_mset(g, 1, 0, 2, 12, 1 / 8, rng).found:
            fails += 1
    sigma = math.sqrt(trials * (1 / 8) * (7 / 8))
    assert fails <= trials / 8 + 3 * sigma


def test_bfs_round_respects_cap():
    g = gen_kn(8)  # 56 edges, far above the round cap
    for cap in (3, 6, 11):
        eids = []
        _queue, _tree, hit, count = ReversalOverlay(g).bounded_bfs(
            1, -1, cap, eids)
        assert not hit and count == len(eids) == cap


def test_amplified_finds_fixture():
    g = gen_cyc(6, 2)
    res = amplified_mset(g, 1, 0, 2, 12, 1 / 64, random.Random(5))
    assert res.found and res.cut.sorted() == [1]


def test_search_argument_validation(rng):
    g = gen_cyc(4, 1)
    with pytest.raises(GraphError):
        find_out_paths(ReversalOverlay(g), 1, 1, 1, 3)
    with pytest.raises(GraphError):
        randomized_local_search_mset(g, 1, 1, 1, 3, rng)
    with pytest.raises(GraphError):
        amplified_mset(g, 1, 0, 1, 3, 1.5, rng)


def test_local_search_debug_precondition():
    g = gen_cyc(4, 1)
    with pytest.raises(GraphError):
        local_search_mset(g, 1, 0, 2, 10, debug=True)  # lambda(1,0)=1 < 2
