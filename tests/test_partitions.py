"""Partition algebra and the per-sample good-partition constructions."""

import random

import pytest

import kecc.flow
import kecc.partitions
from kecc.digraph import CutSet, Digraph, GraphError, contract
from kecc.flow import lambda_bounded
from kecc.gen import gen_blocks, gen_chain, gen_cyc, gen_kn
from kecc.local_search import EMPTY, MSetResult
from kecc.oracle import (BOTTOM, ecc_components, latest_oracle, mset_oracle,
                         mutually_connected)
from kecc.partitions import (Partition, ecc_naive, good_k3_partition,
                             good_partition_deficient, good_partition_full,
                             good_partition_low, partition_from_msets,
                             pull_back, refine, refine_many)

from conftest import planted_deficient, random_strongly_connected


def blocks_of(p):
    return [tuple(b) for b in p.blocks()]


def count_contractions(monkeypatch):
    """Count the graphs the good-partition constructions contract."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return contract(*args, **kwargs)

    monkeypatch.setattr(kecc.partitions, "contract", counted)
    return calls


def test_refine_identities():
    u = range(4)
    p = Partition.from_blocks(u, [[0, 1], [2, 3]])
    assert refine(p, Partition.one_block(u)) == p
    assert refine(p, p) == p
    q = Partition.from_blocks(u, [[0, 2], [1, 3]])
    assert refine(p, q) == Partition.singletons(u)


def test_refine_universe_mismatch():
    p = Partition.one_block(range(3))
    q = Partition.one_block(range(4))
    with pytest.raises(ValueError):
        refine(p, q)


def test_refine_many_order_independent(rng):
    universe = range(12)
    parts = []
    for _ in range(5):
        labels = {v: rng.randrange(3) for v in universe}
        parts.append(Partition.from_key(universe, labels.__getitem__))
    want = refine_many(parts)
    for _ in range(6):
        rng.shuffle(parts)
        assert refine_many(parts) == want


def test_partition_canonical_block_ids():
    p = Partition.from_blocks(range(5), [[3, 4], [0, 2], [1]])
    assert p.blocks() == [[0, 2], [1], [3, 4]]
    assert [p.label[v] for v in range(5)] == [0, 1, 0, 2, 2]


def test_partition_from_msets_grouping():
    g = gen_kn(5)
    results = {}
    for v in range(1, 5):
        results[v] = MSetResult.of(CutSet.compute(g, {v}))
    part = partition_from_msets(results, range(5), range(5))
    assert blocks_of(part) == [(0,), (1,), (2,), (3,), (4,)]
    allempty = partition_from_msets({v: EMPTY for v in range(5)},
                                    range(5), range(5))
    assert allempty.n_blocks == 1


def test_partition_from_msets_aux_share_empty_block():
    g = gen_kn(5)
    results = {1: MSetResult.of(CutSet.compute(g, {1})), 2: EMPTY}
    part = partition_from_msets(results, range(5), ordinary=[1, 2])
    assert part.same_block(2, 0) and part.same_block(3, 4)
    assert not part.same_block(1, 2)


def test_pull_back_is_partition_of_universe():
    g = gen_blocks(4, 4, 2)
    sub = ecc_naive(g, 3)
    mapping = {v: v for v in g.vertices()}
    back = pull_back(sub, mapping, tuple(sorted(g.vertices())))
    assert back == sub


def test_ecc_naive_fixtures(rng):
    g = random_strongly_connected(rng, 6, 6)
    assert ecc_naive(g, 1).n_blocks == 1
    assert ecc_naive(gen_cyc(4, 2), 3).n_blocks == 4
    assert blocks_of(ecc_naive(gen_blocks(5, 5, 2), 3)) == \
        [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]


def test_ecc_naive_matches_oracle(rng):
    for _ in range(15):
        g = random_strongly_connected(rng, rng.randrange(3, 8),
                                      rng.randrange(0, 12))
        c = rng.randrange(1, 4)
        assert ecc_naive(g, c) == ecc_components(g, c)


def test_good_partition_full_cycle_singletons():
    g = gen_cyc(4, 1)
    part = good_partition_full(g, 1, 0, 0)
    assert part.n_blocks == 4


def test_good_partition_full_k4():
    g = gen_kn(4)
    part = good_partition_full(g, 1, 0, 2)
    assert blocks_of(part) == [(0,), (1,), (2, 3)]


def test_good_partition_full_wrong_lambda():
    with pytest.raises(GraphError):
        good_partition_full(gen_kn(4), 1, 0, 1)  # lambda is 3, not 2


def test_good_partition_deficient_blocks():
    g = gen_blocks(5, 5, 2)
    part = good_partition_deficient(g, 6, 1, 2)
    assert blocks_of(part) == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]


def test_good_partition_deficient_head_is_root():
    # cut edge heading straight into the root is skipped
    g = gen_cyc(4, 1)
    part = good_partition_deficient(g, 1, 0, 1)
    assert blocks_of(part) == [(0,), (1, 2, 3)]


def test_good_partition_deficient_planted_contract():
    g, v, s = planted_deficient()
    part = good_partition_deficient(g, v, s, 2)
    cluster = set(range(5, 10))
    for u in cluster:
        for w in range(5):
            assert not part.same_block(u, w)
    # one-sided guarantee: mutually 4-connected pairs stay together
    for a in range(5):
        for b in range(a + 1, 5):
            if mutually_connected(g, a, b, 4):
                assert part.same_block(a, b)
    for a in cluster:
        for b in cluster:
            if a < b and mutually_connected(g, a, b, 4):
                assert part.same_block(a, b)


def test_good_partition_deficient_one_flow_per_exit_head(monkeypatch):
    g, v, s = planted_deficient()
    latest = latest_oracle(g, v, s).members
    heads = [g.head(e) for u in latest for e in g.out_edges(u)
             if g.head(e) not in latest and g.head(e) != s]
    assert heads
    flows = [0]
    real = kecc.flow.flow_state

    def counted(*args, **kwargs):
        flows[0] += 1
        return real(*args, **kwargs)

    # the component split runs its own pairwise flows; the oracle's runs none
    monkeypatch.setattr(kecc.flow, "flow_state", counted)
    monkeypatch.setattr(kecc.partitions, "ecc_naive", ecc_components)
    part = good_partition_deficient(g, v, s, 2)
    assert flows[0] == 1 + len(heads)
    monkeypatch.undo()
    assert part == good_partition_deficient(g, v, s, 2)


def test_good_partition_low_delegates_at_two():
    g = gen_blocks(6, 6, 2)
    assert good_partition_low(g, 7, 1) == good_partition_deficient(g, 7, 1, 2)


def test_good_partition_low_chain():
    g = gen_chain(2, 5, 1)
    part = good_partition_low(g, 5, 0)
    for u in range(5):
        for w in range(5, 10):
            assert not part.same_block(u, w)
    for side in (range(5), range(5, 10)):
        side = list(side)
        for a in side:
            for b in side:
                if a < b:
                    assert part.same_block(a, b)


def test_good_partition_low_rejects_high_lambda():
    with pytest.raises(GraphError):
        good_partition_low(gen_kn(5), 1, 0)


def test_good_k3_top_case_is_full():
    g = gen_blocks(5, 5, 4)  # out(B side) = 4 = k+2 for k=2
    assert lambda_bounded(g, 6, 1, 5) == 4
    want = good_partition_full(g, 6, 1, 3)
    assert good_k3_partition(g, 6, 1, 2) == want


def test_good_k3_three_block_chain(monkeypatch):
    g = gen_chain(3, 4, 1)
    s = 0
    v = 4  # second block; lambda(v, s) = 2 = k+1 for k=1
    assert lambda_bounded(g, v, s, 4) == 2
    calls = count_contractions(monkeypatch)
    part = good_k3_partition(g, v, s, 1)
    for u in range(4, 12):
        for w in range(4):
            assert not part.same_block(u, w)
    assert 0 < calls[0] <= 2 * (1 + 2) ** 2


def test_good_k3_deficient_case():
    g = gen_chain(3, 4, 2)  # k = 2 everywhere, lambda across blocks = 4
    s = 0
    v = 4
    lam = lambda_bounded(g, v, s, 5)
    assert lam == 4 == 2 + 2
    part = good_k3_partition(g, v, s, 2)
    # maintains (k+3)=5-connected pairs: within-block pairs are 3-connected
    # only, so nothing to preserve; the construction must separate the
    # blocks reachable only through the sampled side
    for w in range(4):
        assert not part.same_block(v, w)


def test_good_k3_merged_exit_head_below_k_plus_2():
    # lambda(0, 3) = 1 = k; merging the latest cut with its exit head 1
    # leaves connectivity k+1, where the construction must again contract
    # that vertex's latest min cut (this input once raised GraphError).  The
    # graph has no 4-connected pair, so the check is that the call returns;
    # tests/test_golden.py checks such cases that do have pairs
    g = Digraph()
    g.add_vertices(4)
    for u, w in ((3, 0), (0, 1), (1, 2), (2, 3), (1, 3), (3, 1)):
        g.add_edge(u, w)
    k = 1
    assert lambda_bounded(g, 0, 3, k + 3) == k
    part = good_k3_partition(g, 0, 3, k)
    for a in range(4):
        for b in range(a + 1, 4):
            if mutually_connected(g, a, b, k + 3):
                assert part.same_block(a, b), (a, b)


def test_good_k3_subgraph_budget(rng, monkeypatch):
    calls = count_contractions(monkeypatch)
    done = 0
    while done < 10:
        g = random_strongly_connected(rng, rng.randrange(4, 9),
                                      rng.randrange(2, 12))
        v, s = rng.sample(range(g.n_live), 2)
        k = rng.randrange(1, 3)
        lam = lambda_bounded(g, v, s, k + 3)
        if not k <= lam <= k + 2:
            continue
        calls[0] = 0
        good_k3_partition(g, v, s, k)
        assert calls[0] <= 2 * (k + 2) ** 2
        done += 1


def test_good_partitions_never_split_connected_pairs(rng):
    # contract (a) across all three constructions on random graphs
    done = 0
    while done < 40:
        g = random_strongly_connected(rng, rng.randrange(4, 8),
                                      rng.randrange(2, 12))
        v, s = rng.sample(range(g.n_live), 2)
        k = rng.randrange(1, 3)
        lam = lambda_bounded(g, v, s, k + 2)
        if lam == k + 1:
            part = good_partition_full(g, v, s, k)
        elif lam == k:
            part = good_partition_deficient(g, v, s, k)
        else:
            continue
        verts = sorted(g.vertices())
        for i, a in enumerate(verts):
            for b in verts[i + 1:]:
                if mutually_connected(g, a, b, k + 2):
                    assert part.same_block(a, b), (a, b, k)
        done += 1


def test_good_partition_full_separation_contract(rng):
    # contract (b): u with v inside its minimal (k+1)-out set splits from
    # every ordinary w outside that set
    done = 0
    while done < 25:
        g = random_strongly_connected(rng, rng.randrange(4, 8),
                                      rng.randrange(2, 12))
        v, s = rng.sample(range(g.n_live), 2)
        k = rng.randrange(1, 3)
        if lambda_bounded(g, v, s, k + 2) != k + 1:
            continue
        part = good_partition_full(g, v, s, k)
        for u in g.vertices():
            if u == s or lambda_bounded(g, u, s, k + 2) != k + 1:
                continue
            mu = mset_oracle(g, u, s, k + 1)
            if mu is BOTTOM or v not in mu.members:
                continue
            for w in g.vertices():
                if w not in mu.members:
                    assert not part.same_block(u, w)
        done += 1
