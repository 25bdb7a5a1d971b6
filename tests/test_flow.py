"""Bounded connectivity, minimal/latest min-cut sides and the min-cut DAG."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecc.digraph import Digraph, GraphError, ReversalOverlay, contract, out_of
from kecc.flow import (CertifiedSink, flow_state, lambda_bounded,
                       latest_mincut, minimal_mincut_side, pq_graph)
from kecc.gen import gen_blocks, gen_cyc, gen_kn, gen_random_kec
from kecc.oracle import (enumerate_separators, lambda_oracle, latest_oracle,
                         mset_oracle)

from conftest import (closed_sets, induced, overlay_to_digraph, pq_dag,
                      random_strongly_connected, random_walk)


def test_lambda_fixtures():
    assert lambda_bounded(gen_cyc(4, 2), 1, 0, 5) == 2
    assert lambda_bounded(gen_kn(4), 0, 3, 10) == 3
    assert lambda_bounded(gen_blocks(5, 5, 2), 1, 6, 4) == 2


def test_lambda_cap_saturates():
    assert lambda_bounded(gen_kn(5), 0, 1, 2) == 2


def test_lambda_matches_oracle_random(rng):
    for _ in range(25):
        g = random_strongly_connected(rng, rng.randrange(3, 8),
                                      rng.randrange(0, 12))
        u, v = rng.sample(range(g.n_live), 2)
        cap = rng.randrange(1, 6)
        assert lambda_bounded(g, u, v, cap) == lambda_oracle(g, u, v, cap)


def test_flow_state_fixtures():
    fs = flow_state(gen_cyc(4, 1), 1, 0)
    assert fs.value == 1
    assert len(fs.overlay.journal) == 3  # one path of three edges
    fs = flow_state(gen_kn(4), 0, 3)
    assert fs.value == 3
    assert len(fs.overlay.journal) == 5  # paths of lengths 1, 2, 2


def test_minimal_mincut_fixtures():
    assert minimal_mincut_side(gen_cyc(4, 1), 1, 0) == {1}
    assert minimal_mincut_side(gen_cyc(4, 3), 2, 0) == {2}
    g = gen_blocks(5, 5, 2)
    cut = minimal_mincut_side(g, 6, 1)
    assert cut == {5, 6, 7, 8, 9}
    assert out_of(g, cut) == 2


def test_latest_mincut_fixtures():
    assert latest_mincut(gen_cyc(4, 1), 1, 0) == {1, 2, 3}
    assert latest_mincut(gen_blocks(5, 5, 2), 6, 1) == {5, 6, 7, 8, 9}


def test_minimal_latest_against_enumeration(rng):
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randrange(3, 7),
                                      rng.randrange(0, 10))
        v, s = rng.sample(range(g.n_live), 2)
        lam = lambda_oracle(g, v, s, 10)
        seps = enumerate_separators(g, v, s, lam)
        assert seps, "a min cut always exists"
        minimal = minimal_mincut_side(g, v, s)
        latest = latest_mincut(g, v, s)
        inter = frozenset.intersection(*seps)
        union = frozenset.union(*seps)
        assert minimal == inter
        assert latest == union
        for sep in seps:
            assert minimal <= sep <= latest


def test_latest_boundary_reachability(rng):
    # every boundary point of the returned set is reachable from v inside it
    for _ in range(100):
        g = random_strongly_connected(rng, rng.randrange(3, 9),
                                      rng.randrange(0, 14))
        v, s = rng.sample(range(g.n_live), 2)
        cut = latest_mincut(g, v, s)
        boundary = {g.tail(e) for u in cut for e in g.out_edges(u)
                    if g.head(e) not in cut}
        sub, vmap = induced(g, cut)
        ov = ReversalOverlay(sub)
        reach = set(ov.bfs(vmap[v]))
        assert {vmap[b] for b in boundary} <= reach


def test_include_outgoing_edge(rng):
    # from the latest mincut S with R the inside-reach of v, merging any exit
    # point x != s pushes the connectivity to s strictly above out(S)
    done = 0
    while done < 30:
        g = random_strongly_connected(rng, rng.randrange(4, 9),
                                      rng.randrange(0, 14))
        v, s = rng.sample(range(g.n_live), 2)
        cut = latest_mincut(g, v, s)
        lam = out_of(g, cut)
        sub, vmap = induced(g, cut)
        reach_local = ReversalOverlay(sub).bfs(vmap[v])
        inv = {b: a for a, b in vmap.items()}
        reach = {inv[x] for x in reach_local}
        exits = {g.head(e) for u in cut for e in g.out_edges(u)
                 if g.head(e) not in cut}
        exits.discard(s)
        if not exits:
            continue
        for x in exits:
            merged, z = contract(g, reach | {x})
            assert lambda_oracle(merged, z, s, lam + 1) > lam
        done += 1


def test_edge_conn_after_reverse(rng):
    for _ in range(60):
        g = random_strongly_connected(rng, rng.randrange(3, 8),
                                      rng.randrange(0, 12))
        v, s = rng.sample(range(g.n_live), 2)
        lam = lambda_oracle(g, v, s, g.m_live + 1)
        ov = ReversalOverlay(g)
        walk = random_walk(g, ov, rng, v)
        if not walk:
            continue
        ov.reverse_path(walk)
        after = lambda_oracle(overlay_to_digraph(ov), v, s, g.m_live + 1)
        assert after in (lam, lam - 1)


def test_minimum_set_after_reverse(rng):
    # reversing a v-path that ends outside the minimal separator makes the
    # same set the minimal separator one connectivity level down
    done = 0
    while done < 25:
        g = random_strongly_connected(rng, rng.randrange(3, 8),
                                      rng.randrange(0, 10))
        v, s = rng.sample(range(g.n_live), 2)
        lam = lambda_oracle(g, v, s, 8)
        if lam < 2:
            continue
        minimal = minimal_mincut_side(g, v, s)
        ov = ReversalOverlay(g)
        walk = random_walk(g, ov, rng, v, max_len=20)
        if not walk:
            continue
        end = ov.head(walk[-1])  # overlay orientation before flipping
        if end in minimal:
            continue
        ov.reverse_path(walk)
        h = overlay_to_digraph(ov)
        assert mset_oracle(h, v, s, lam - 1) == minimal
        done += 1


def test_submodularity_of_separators(rng):
    done = 0
    while done < 30:
        g = random_strongly_connected(rng, rng.randrange(4, 7),
                                      rng.randrange(0, 8))
        v, s = rng.sample(range(g.n_live), 2)
        lam = lambda_oracle(g, v, s, 8)
        seps = enumerate_separators(g, v, s, lam)
        if len(seps) < 2:
            continue
        a, b = rng.sample(seps, 2)
        from kecc.digraph import out_of
        assert out_of(g, a & b) == lam
        assert out_of(g, a | b) == lam
        done += 1


def test_pq_cycle_fixture():
    g = gen_cyc(4, 1)
    pq = pq_graph(g, 1, 0)
    adjacency = {x: sorted(pq.succ[x]) for x in pq.universe}
    assert adjacency == {0: [1, 3], 1: [], 2: [1], 3: [2]}
    assert pq.n_scc == 4
    closed = {frozenset(x) for x in closed_sets(pq)}
    assert closed == {frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})}


def test_pq_saturated_edges_only_backward():
    g = gen_cyc(4, 1)
    pq = pq_graph(g, 1, 0)
    # flow saturates 1->2->3->0; those arcs appear only reversed
    assert 2 not in pq.succ[1]
    assert 1 in pq.succ[2]


def test_pq_kn_fixture():
    g = gen_kn(4)
    pq = pq_graph(g, 0, 3)
    closed = {frozenset(x) for x in closed_sets(pq)}
    brute = set(enumerate_separators(g, 0, 3, 3))
    assert closed == brute


def test_pq_condensation_endpoints(rng):
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randrange(3, 7),
                                      rng.randrange(0, 8))
        v, s = rng.sample(range(g.n_live), 2)
        pq = pq_graph(g, v, s)
        dag = pq_dag(pq)
        indeg = {c: 0 for c in range(pq.n_scc)}
        for c, targets in dag.items():
            for t in targets:
                indeg[t] += 1
        sources = [c for c, d in indeg.items() if d == 0]
        sinks = [c for c, targets in dag.items() if not targets]
        assert sources == [pq.scc_id[s]]
        assert sinks == [pq.scc_id[v]]


def test_pq_closed_sets_match_enumeration(rng):
    for _ in range(40):
        g = random_strongly_connected(rng, rng.randrange(3, 7),
                                      rng.randrange(0, 9))
        v, s = rng.sample(range(g.n_live), 2)
        lam = lambda_oracle(g, v, s, 10)
        closed = {frozenset(x) for x in closed_sets(pq_graph(g, v, s))}
        assert closed == set(enumerate_separators(g, v, s, lam))


def test_flow_argument_validation():
    g = gen_cyc(3, 1)
    with pytest.raises(GraphError):
        lambda_bounded(g, 1, 1, 3)
    with pytest.raises(GraphError):
        lambda_bounded(g, 0, 1, 0)


def test_certified_sink_argument_validation():
    g = gen_cyc(3, 1)
    with pytest.raises(GraphError, match="sink must be live"):
        CertifiedSink(g, 7, 2)
    with pytest.raises(GraphError, match="cap"):
        CertifiedSink(g, 0, 0)
    sink = CertifiedSink(g, 0, 1)
    assert sink.flow(1) == (1, None)
    for v in (0, 1, 7):  # the sink, a certified vertex, a dead id
        with pytest.raises(GraphError, match="uncertified"):
            sink.flow(v)


@st.composite
def certified_passes(draw):
    """A random strongly connected multigraph (often not c-connected), a
    root, a cap c and the other vertices in a random order."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    g = random_strongly_connected(rng, draw(st.integers(2, 9)),
                                  draw(st.integers(0, 24)))
    s = draw(st.sampled_from(g.vertices()))
    order = draw(st.permutations([v for v in g.vertices() if v != s]))
    return g, s, draw(st.integers(1, 4)), order


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(certified_passes())
def test_certified_flows_match_flows_to_the_root(case):
    # flows into the root and the vertices certified before them give
    # min(lambda(v, s), c) and, below c, v's minimal min-cut side
    g, s, cap, order = case
    sink = CertifiedSink(g, s, cap)
    for v in order:
        value, side = sink.flow(v)
        assert value == lambda_bounded(g, v, s, cap)
        if value < cap:
            assert frozenset(side) == minimal_mincut_side(g, v, s)
            assert len(side) == len(set(side))
        else:
            assert side is None


def test_flow_reads_a_fraction_of_the_graph(monkeypatch):
    # the two-sided search stops where the sides meet: a capped flow on a
    # random 2-connected graph reads a small fraction of its m = 2400
    # adjacency entries, where a one-sided search reads about all of them
    read = [0]
    succ, pred = ReversalOverlay.succ, ReversalOverlay.pred

    def counted(step):
        def walk(ov, x):
            for entry in step(ov, x):
                read[0] += 1
                yield entry
        return walk

    # without snapshots every adjacency entry is read through succ or pred,
    # in the same order
    monkeypatch.setattr(ReversalOverlay, "_snapshot",
                        lambda ov, backward=False: None)
    monkeypatch.setattr(ReversalOverlay, "succ", counted(succ))
    monkeypatch.setattr(ReversalOverlay, "pred", counted(pred))
    g = gen_random_kec(300, 2, 1800, 1)
    flows = [flow_state(g, v, 0, 3) for v in range(1, 300)]
    assert all(fs.value >= 2 for fs in flows)
    assert read[0] / len(flows) < g.m_live / 4


@st.composite
def flow_queries(draw):
    """A small multigraph (not necessarily strongly connected), the same
    graph with its edges added in another order, a source and a sink."""
    n = draw(st.integers(2, 7))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda a: a[0] != a[1]), max_size=20))
    graphs = []
    for order in (arcs, draw(st.permutations(arcs))):
        g = Digraph()
        g.add_vertices(n)
        for u, v in order:
            g.add_edge(u, v)
        graphs.append(g)
    v, s = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    return graphs, v, s


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(flow_queries(), st.integers(1, 3))
def test_flow_readers_do_not_depend_on_the_flow(query, headroom):
    # a capped flow below its cap is maximum, and the minimal side, the
    # latest side and the min-cut DAG partition are the same for every
    # maximum flow: here an uncapped one found in another edge order, and
    # the oracle's own flow
    (g, shuffled), v, s = query
    other = flow_state(shuffled, v, s)
    capped = flow_state(g, v, s, other.value + headroom)
    assert capped.value == other.value
    assert capped.minimal_side() == other.minimal_side()
    assert capped.latest_side() == other.latest_side()
    assert capped.pq().partition() == other.pq().partition()
    assert capped.minimal_side() == mset_oracle(g, v, s, capped.value)
    assert capped.latest_side() == latest_oracle(g, v, s)
