"""Partition algebra and the per-sample good-partition constructions."""

import random

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import kecc.flow
import kecc.partitions
from kecc.digraph import Digraph, GraphError, contract
from kecc.flow import flow_state, lambda_bounded
from kecc.gen import gen_blocks, gen_chain, gen_cyc, gen_kn
from kecc.local_search import EMPTY, MSetResult
from kecc.oracle import (BOTTOM, ecc_components, latest_oracle, mset_oracle,
                         mutually_connected)
from kecc.partitions import (Partition, ecc_naive, good_partition,
                             partition_from_msets, refine, refine_many)

from conftest import (good_partition_by_maps, one_block, planted_deficient,
                      random_strongly_connected, singletons, whole_residual)


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
    assert refine(p, one_block(u)) == p
    assert refine(p, p) == p
    q = Partition.from_blocks(u, [[0, 2], [1, 3]])
    assert refine(p, q) == singletons(u)


def test_refine_universe_mismatch():
    p = one_block(range(3))
    q = one_block(range(4))
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
    results = {}
    for v in range(1, 5):
        results[v] = MSetResult(frozenset({v}))
    part = partition_from_msets(results, range(5), range(5))
    assert blocks_of(part) == [(0,), (1,), (2,), (3,), (4,)]
    allempty = partition_from_msets({v: EMPTY for v in range(5)},
                                    range(5), range(5))
    assert allempty.n_blocks == 1


def test_partition_from_msets_aux_share_empty_block():
    results = {1: MSetResult(frozenset({1})), 2: EMPTY}
    part = partition_from_msets(results, range(5), ordinary=[1, 2])
    assert part.same_block(2, 0) and part.same_block(3, 4)
    assert not part.same_block(1, 2)


def test_ecc_naive_fixtures(rng):
    g = random_strongly_connected(rng, 6, 6)
    assert ecc_naive(g, 1).n_blocks == 1
    assert ecc_naive(gen_cyc(4, 2), 3).n_blocks == 4
    assert blocks_of(ecc_naive(gen_blocks(5, 5, 2), 3)) == \
        [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]


@st.composite
def multigraphs(draw):
    """Multigraphs on up to 12 vertices, strongly connected or not: a cycle
    through a drawn prefix of the vertices plus drawn arcs of multiplicity
    up to 3, some of them doubled in both directions."""
    n = draw(st.integers(1, 12))
    g = Digraph()
    g.add_vertices(n)
    ring = draw(st.integers(0, n))
    if ring >= 2:
        for i in range(ring):
            g.add_edge(i, (i + 1) % ring)
    vertex = st.integers(0, n - 1)
    for u, v, copies, both in draw(st.lists(
            st.tuples(vertex, vertex, st.integers(1, 3), st.booleans()),
            max_size=3 * n)):
        if u != v:
            g.add_edge(u, v, copies=copies)
            if both:
                g.add_edge(v, u, copies=copies)
    return g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(multigraphs(), st.integers(1, 3))
def test_ecc_naive_matches_oracle(g, c):
    assert ecc_naive(g, c) == ecc_components(g, c)


def test_ecc_naive_runs_every_flow_into_sinks(monkeypatch):
    seen = []
    real = kecc.flow.flow_state

    def recording(g, src, dst, cap=None, sinks=None):
        seen.append(sinks)
        return real(g, src, dst, cap, sinks)

    # lambda_bounded looks flow_state up here as well
    monkeypatch.setattr(kecc.flow, "flow_state", recording)
    g = gen_chain(3, 4, 2)
    assert ecc_naive(g, 3) == ecc_components(g, 3)
    assert seen and all(sinks is not None for sinks in seen)


def test_good_partition_full_cycle_singletons():
    g = gen_cyc(4, 1)
    part = good_partition(flow_state(g, 1, 0, 2), 2)
    assert part.n_blocks == 4


def test_good_partition_full_k4():
    g = gen_kn(4)
    part = good_partition(flow_state(g, 1, 0, 4), 4)
    assert blocks_of(part) == [(0,), (1,), (2, 3)]


def _one_arc():
    g = Digraph()
    g.add_vertices(2)
    g.add_edge(0, 1)
    return g


@pytest.mark.parametrize("make,t,match", [
    (lambda: gen_kn(4), 3, "below t=3"),  # lambda is 3
    (lambda: gen_kn(5), 4, "below t=4"),  # lambda is 4
    (_one_arc, 2, "not strongly connected")],  # lambda(1, 0) is 0
    ids=["kn4-t3", "kn5-t4", "lambda0"])
def test_good_partition_rejects_lambda_out_of_range(make, t, match):
    with pytest.raises(GraphError, match=match):
        good_partition(flow_state(make(), 1, 0, t), t)


def test_good_partition_deficient_blocks():
    g = gen_blocks(5, 5, 2)
    part = good_partition(flow_state(g, 6, 1, 4), 4)
    assert blocks_of(part) == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]


def test_good_partition_deficient_head_is_root():
    # cut edge heading straight into the root is skipped
    g = gen_cyc(4, 1)
    part = good_partition(flow_state(g, 1, 0, 3), 3)
    assert blocks_of(part) == [(0,), (1, 2, 3)]


def test_good_partition_deficient_planted_contract():
    g, v, s = planted_deficient()
    part = good_partition(flow_state(g, v, s, 4), 4)
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
    latest = latest_oracle(g, v, s)
    heads = [g.head(e) for u in latest for e in g.out_edges(u)
             if g.head(e) not in latest and g.head(e) != s]
    assert len(heads) > len(set(heads))  # two cut edges into one head
    flows = [0]
    real = kecc.flow.flow_state

    def counted(*args, **kwargs):
        flows[0] += 1
        return real(*args, **kwargs)

    # the component split runs its own pairwise flows; the oracle's runs none
    monkeypatch.setattr(kecc.flow, "flow_state", counted)
    monkeypatch.setattr(kecc.partitions, "ecc_naive", ecc_components)
    part = good_partition(kecc.flow.flow_state(g, v, s, 4), 4)
    assert flows[0] == 1 + len(set(heads))
    monkeypatch.undo()
    assert part == good_partition(flow_state(g, v, s, 4), 4)


@st.composite
def bundled_cuts(draw):
    """(g, v, s, t) with lambda(v, s) < t-1 on a strongly connected
    multigraph: a cluster A holding v and a rest B holding s, each a cycle
    plus arcs of multiplicity up to 3, joined by one or two bundles of 2 or
    3 parallel arcs from A into a vertex of B other than s, maybe one more
    arc out of A, and arcs back into A.  Most vertices of B get three arcs
    into s, so a bundle's head often lies outside the latest side and the
    cut holds parallel edges into it."""
    a, b = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    g = Digraph()
    g.add_vertices(a + b)
    cluster, rest = list(range(a)), list(range(a, a + b))
    for part in (cluster, rest):
        if len(part) > 1:
            for i, u in enumerate(part):
                g.add_edge(u, part[(i + 1) % len(part)])
        vertex = st.sampled_from(part)
        for u, w, copies in draw(st.lists(
                st.tuples(vertex, vertex, st.integers(1, 3)),
                max_size=3 * len(part))):
            if u != w:
                g.add_edge(u, w, copies=copies)
    s = rest[0]
    for u in rest[1:]:
        if draw(st.booleans()):
            g.add_edge(u, s, copies=3)
    inside, outside = st.sampled_from(cluster), st.sampled_from(rest)
    for _ in range(draw(st.integers(1, 2))):
        g.add_edge(draw(inside), draw(st.sampled_from(rest[1:])),
                   copies=draw(st.integers(2, 3)))
    if draw(st.booleans()):
        g.add_edge(draw(inside), draw(outside))
    g.add_edge(draw(outside), draw(inside), copies=draw(st.integers(1, 3)))
    v = draw(inside)
    return g, v, s, lambda_bounded(g, v, s, 9) + draw(st.integers(2, 3))


def _repeated_exit_head(case):
    g, v, s, t = case
    latest = flow_state(g, v, s, t).latest_side()
    heads = [g.head(e) for u in latest for e in g.out_edges(u)
             if g.head(e) not in latest and g.head(e) != s]
    return len(heads) > len(set(heads))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(bundled_cuts())
def test_good_partition_matches_map_based_pull_back(case):
    # one flow and recursion per distinct exit head, read back through the
    # ids contraction keeps, gives the partition that one per cut edge,
    # pulled back through explicit vertex maps, gives
    g, v, s, t = case
    assert good_partition(flow_state(g, v, s, t), t) == \
        good_partition_by_maps(flow_state(g, v, s, t), t)


def test_bundled_cuts_reach_repeated_exit_heads():
    find(bundled_cuts(), _repeated_exit_head,
         settings=settings(derandomize=True, database=None))


def test_good_partition_chain_at_lambda_one():
    # lambda(5, 0) = 1, three below the target t = 4
    g = gen_chain(2, 5, 1)
    part = good_partition(flow_state(g, 5, 0, 4), 4)
    for u in range(5):
        for w in range(5, 10):
            assert not part.same_block(u, w)
    for side in (range(5), range(5, 10)):
        side = list(side)
        for a in side:
            for b in side:
                if a < b:
                    assert part.same_block(a, b)


def test_good_k3_top_case_is_full():
    # at lambda = t-1 the partition is the min-cut DAG's components
    g = gen_blocks(5, 5, 4)  # out(B side) = 4 = k+2 for k=2
    assert lambda_bounded(g, 6, 1, 5) == 4
    want = whole_residual(g, 6, 1).partition()
    assert good_partition(flow_state(g, 6, 1, 2 + 3), 2 + 3) == want


def test_good_k3_three_block_chain(monkeypatch):
    g = gen_chain(3, 4, 1)
    s = 0
    v = 4  # second block; lambda(v, s) = 2 = k+1 for k=1
    assert lambda_bounded(g, v, s, 4) == 2
    calls = count_contractions(monkeypatch)
    part = good_partition(flow_state(g, v, s, 1 + 3), 1 + 3)
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
    part = good_partition(flow_state(g, v, s, 2 + 3), 2 + 3)
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
    part = good_partition(flow_state(g, 0, 3, k + 3), k + 3)
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
        good_partition(flow_state(g, v, s, k + 3), k + 3)
        assert calls[0] <= 2 * (k + 2) ** 2
        done += 1


def test_good_partitions_never_split_connected_pairs(rng):
    # contract (a) at lambda(v, s) in {k, k+1} on random graphs
    done = 0
    while done < 40:
        g = random_strongly_connected(rng, rng.randrange(4, 8),
                                      rng.randrange(2, 12))
        v, s = rng.sample(range(g.n_live), 2)
        k = rng.randrange(1, 3)
        if not k <= lambda_bounded(g, v, s, k + 2) <= k + 1:
            continue
        part = good_partition(flow_state(g, v, s, k + 2), k + 2)
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
        part = good_partition(flow_state(g, v, s, k + 2), k + 2)
        for u in g.vertices():
            if u == s or lambda_bounded(g, u, s, k + 2) != k + 1:
                continue
            mu = mset_oracle(g, u, s, k + 1)
            if mu is BOTTOM or v not in mu:
                continue
            for w in g.vertices():
                if w not in mu:
                    assert not part.same_block(u, w)
        done += 1
