"""Bounded connectivity, minimal/latest min-cut sides and the min-cut DAG."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecc.digraph import (Digraph, GraphError, ReversalOverlay, contract,
                          from_arcs, out_of)
from kecc.flow import (flow_state, lambda_bounded, latest_mincut,
                       minimal_mincut_side, pq_graph)
from kecc.gen import gen_blocks, gen_cyc, gen_kn, gen_random_kec
from kecc.oracle import (enumerate_separators, lambda_oracle, latest_oracle,
                         mset_oracle)
from kecc.partitions import good_partition

from conftest import (WholeResidual, closed_sets, ends_from_dirty, induced,
                      overlay_to_digraph, pq_dag, random_strongly_connected,
                      random_walk, whole_residual)


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
        reach = set(ov.bfs([vmap[v]]))
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
        reach_local = ReversalOverlay(sub).bfs([vmap[v]])
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
    pq = whole_residual(g, 1, 0)
    adjacency = {x: sorted(pq.succ[x]) for x in pq.universe}
    assert adjacency == {0: [1, 3], 1: [], 2: [1], 3: [2]}
    assert pq.n_scc == 4
    closed = {frozenset(x) for x in closed_sets(pq)}
    assert closed == {frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})}


def test_pq_saturated_edges_only_backward():
    g = gen_cyc(4, 1)
    pq = whole_residual(g, 1, 0)
    # flow saturates 1->2->3->0; those arcs appear only reversed
    assert 2 not in pq.succ[1]
    assert 1 in pq.succ[2]


def test_pq_kn_fixture():
    g = gen_kn(4)
    pq = whole_residual(g, 0, 3)
    closed = {frozenset(x) for x in closed_sets(pq)}
    brute = set(enumerate_separators(g, 0, 3, 3))
    assert closed == brute


def test_pq_condensation_endpoints(rng):
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randrange(3, 7),
                                      rng.randrange(0, 8))
        v, s = rng.sample(range(g.n_live), 2)
        pq = whole_residual(g, v, s)
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
        closed = {frozenset(x) for x in closed_sets(whole_residual(g, v, s))}
        assert closed == set(enumerate_separators(g, v, s, lam))


def test_flow_argument_validation():
    g = gen_cyc(3, 1)
    with pytest.raises(GraphError):
        lambda_bounded(g, 1, 1, 3)
    with pytest.raises(GraphError):
        lambda_bounded(g, 0, 1, 0)


def test_flow_state_rejects_cap_below_one():
    # a flow capped at 0 has no maximum flow to read sides off: its
    # "minimal side" would contain the sink
    g = gen_cyc(3, 1)
    for cap in (0, -1):
        with pytest.raises(GraphError, match="cap must be >= 1"):
            flow_state(g, 0, 1, cap=cap)
    assert flow_state(g, 0, 1, cap=1).value == 1


def sinks_of(g, *marked):
    sinks = bytearray(g.n_slots())
    for v in marked:
        sinks[v] = 1
    return sinks


def test_certified_sink_argument_validation():
    g = gen_cyc(3, 1)
    with pytest.raises(GraphError, match="live"):
        flow_state(g, 1, 7, 2, sinks_of(g, 0))
    with pytest.raises(GraphError, match="needs a cap"):
        flow_state(g, 1, 0, None, sinks_of(g, 0))
    with pytest.raises(GraphError, match="cap must be >= 1"):
        flow_state(g, 1, 0, 0, sinks_of(g, 0))
    with pytest.raises(GraphError, match="mark the sink"):
        flow_state(g, 1, 0, 1, sinks_of(g, 2))
    sinks = sinks_of(g, 0)
    assert flow_state(g, 1, 0, 1, sinks).value == 1
    assert sinks == sinks_of(g, 0, 1)
    with pytest.raises(GraphError, match="already marked"):
        flow_state(g, 1, 0, 1, sinks)
    with pytest.raises(GraphError, match="differ"):
        flow_state(g, 0, 0, 1, sinks)


@st.composite
def certified_passes(draw):
    """A random strongly connected multigraph (often not c-connected), a
    root, a cap c and the other vertices in a random order.  Half of the
    graphs are made dense with parallel arcs from each vertex into the root
    and the first vertices of the order, so that flows end on one-edge
    paths alone or mix them with searches."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    dense = draw(st.booleans())
    g = random_strongly_connected(rng, draw(st.integers(2, 9)),
                                  draw(st.integers(0, 40 if dense else 24)))
    s = draw(st.sampled_from(g.vertices()))
    order = draw(st.permutations([v for v in g.vertices() if v != s]))
    cap = draw(st.integers(1, 4))
    if dense:
        early = [s] + order[:rng.randrange(len(order) + 1)]
        for v in order:
            for _ in range(rng.randrange(cap + 2)):
                t = rng.choice(early)
                if t != v:
                    g.add_edge(v, t)
    return g, s, cap, order


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(certified_passes())
def test_certified_flows_match_flows_to_the_root(case):
    # flows into the root and the vertices certified before them give
    # min(lambda(v, s), c) and, below c, the readers of the flow to the root
    # alone, read after the pass has certified every vertex it will, as the
    # driver reads them; sinks gains exactly the sources whose flow reached c
    g, s, cap, order = case
    sinks = sinks_of(g, s)
    certified = {s}
    below = []
    for v in order:
        fs = flow_state(g, v, s, cap, sinks)
        assert fs.value == lambda_bounded(g, v, s, cap)
        if fs.value < cap:
            below.append(fs)
        else:
            certified.add(v)
        assert sinks == sinks_of(g, *certified)
    for fs in below:
        alone = flow_state(g, fs.source, s, cap)
        assert fs.minimal_side() == alone.minimal_side()
        assert fs.latest_side() == alone.latest_side()
        # the graphs are strongly connected
        assert fs.scc_partition() == alone.scc_partition()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(certified_passes())
def test_good_partitions_of_certified_flows_match(case):
    # a good partition read off a flow into certified sinks, whose exit
    # heads inherit the marks, equals the one read off the flow to the root
    # alone, at every lambda below t = c that the pass reaches
    g, s, t, order = case
    sinks = sinks_of(g, s)
    below = [fs for fs in (flow_state(g, v, s, t, sinks) for v in order)
             if fs.value < t]
    for fs in below:
        alone = flow_state(g, fs.source, s, t)
        assert good_partition(fs, t) == good_partition(alone, t)


def test_certified_flow_searches_only_past_one_edge_paths(monkeypatch):
    # edges from v straight into the sinks are taken without a search: cap
    # of them certify v with none, and d < cap of them leave at most
    # cap - d augmenting searches and the one that fails
    searches = [0]
    path_into = ReversalOverlay.path_into

    def counted(ov, src, marked):
        searches[0] += 1
        return path_into(ov, src, marked)

    monkeypatch.setattr(ReversalOverlay, "path_into", counted)
    g = gen_kn(5)
    g.add_edge(2, 0)  # 2 has three edges into {0, 1}
    sinks = sinks_of(g, 0, 1)
    assert lambda_bounded(g, 2, 0, 3, sinks) == 3
    assert searches[0] == 0 and sinks[2]
    for seed in range(6):
        g = gen_random_kec(30, 2, 60, seed)
        for cap in (2, 3, 4):
            sinks = sinks_of(g, 0)
            for v in range(1, 30):
                d = sum(1 for _e, y in g.succ(v) if sinks[y])
                searches[0] = 0
                value = lambda_bounded(g, v, 0, cap, sinks)
                if d >= cap:
                    assert searches[0] == 0 and value == cap
                else:
                    assert searches[0] <= cap - d + 1


def test_certified_flow_at_cap_builds_no_overlay(monkeypatch):
    # a source with cap edges into marked vertices is certified before any
    # overlay exists; with fewer it builds exactly one and searches on it
    built = [0]

    class Counted(ReversalOverlay):
        def __init__(self, g):
            built[0] += 1
            super().__init__(g)

    monkeypatch.setattr("kecc.flow.ReversalOverlay", Counted)
    g = from_arcs(3, [(0, 1, 2), (0, 2, 1), (2, 1, 1), (1, 0, 3)])
    sinks = sinks_of(g, 1)
    assert flow_state(g, 0, 1, 2, sinks).value == 2
    assert built[0] == 0 and sinks[0] == 1
    sinks = sinks_of(g, 1)
    assert flow_state(g, 0, 1, 3, sinks).value == 3
    assert built[0] == 1 and sinks[0] == 1


def test_minimal_side_of_a_flow_at_cap_raises():
    # a flow at its cap need not be maximum and ran no search that failed,
    # so it has no side to read, whether its one-edge paths alone took it
    # there (cap 2, no overlay) or a search did (cap 3)
    g = from_arcs(3, [(0, 1, 2), (0, 2, 1), (2, 1, 1), (1, 0, 3)])
    for cap in (2, 3):
        fs = flow_state(g, 0, 1, cap, sinks_of(g, 1))
        assert fs.value == cap and fs.reach is None
        with pytest.raises(GraphError, match=f"reached its cap {cap}"):
            fs.minimal_side()


def test_every_reader_of_a_flow_at_cap_raises():
    # from 0 both one-edge paths into 1 take the flow to its cap with no
    # overlay; into 2 the augmenting searches do, and none of them fails
    for dst in (1, 2):
        fs = flow_state(gen_cyc(4, 3), 0, dst, 2)
        assert fs.value == 2 and fs.reach is None
        assert (fs.overlay is None) == (dst == 1)
        for read in (fs.minimal_side, fs.latest_side, fs.scc_partition):
            with pytest.raises(GraphError, match="reached its cap 2"):
                read()
    # lambda(27, 12) = 5: capped at 5 the flow is no maximum flow at t = 6
    g = gen_random_kec(30, 2, 90, 3)
    with pytest.raises(GraphError, match="reached its cap 5"):
        good_partition(flow_state(g, 27, 12, 5), 6)
    whole = good_partition(flow_state(g, 27, 12), 6)
    assert whole.n_blocks == 2
    assert good_partition(flow_state(g, 27, 12, 6), 6) == whole


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(certified_passes())
def test_flows_keep_their_ends_and_reach(case):
    # a flow records one end per path, the marked vertices it flipped an
    # edge at (the reference), and below its cap keeps the tree of its
    # failed search, the source's residual reach; into sinks, capped to the
    # sink alone and uncapped
    g, s, cap, order = case
    sinks = sinks_of(g, s)
    for v in order:
        for c, marks in ((cap, sinks), (cap, None), (None, None)):
            fs = flow_state(g, v, s, c, marks)
            assert len(fs.ends) == fs.value
            assert set(fs.ends) == ends_from_dirty(g, fs)
            if c is None or fs.value < c:
                assert fs.minimal_side() == frozenset(fs.overlay.bfs([v]))
            else:
                assert fs.reach is None


def test_flow_reads_a_fraction_of_the_graph(monkeypatch):
    # a pass of flows into the root and the vertices certified before them
    # stops each search at the first marked vertex: on a random 2-connected
    # graph a flow reads a small fraction of its m = 2400 adjacency entries,
    # where one-sided searches to the root alone read about all of them
    read = [0]
    succ, pred = ReversalOverlay.succ, ReversalOverlay.pred
    out_edges = Digraph.out_edges

    def counted(step):
        def walk(ov, x):
            for entry in step(ov, x):
                read[0] += 1
                yield entry
        return walk

    def scanned(g, x):
        read[0] += len(g.out[x])
        return out_edges(g, x)

    # the kernels read every adjacency entry through succ or pred, and the
    # one-edge paths are taken from one scan of the source's out-list
    monkeypatch.setattr(ReversalOverlay, "succ", counted(succ))
    monkeypatch.setattr(ReversalOverlay, "pred", counted(pred))
    monkeypatch.setattr(Digraph, "out_edges", scanned)
    g = gen_random_kec(300, 2, 1800, 1)
    sinks = sinks_of(g, 0)
    flows = [flow_state(g, v, 0, 3, sinks) for v in range(1, 300)]
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
    assert (WholeResidual(capped).partition()
            == WholeResidual(other).partition())
    assert capped.minimal_side() == mset_oracle(g, v, s, capped.value)
    assert capped.latest_side() == latest_oracle(g, v, s)


@st.composite
def strong_multigraphs(draw):
    """A small strongly connected multigraph: a Hamiltonian cycle in a drawn
    order plus drawn arcs of one to three parallel copies each."""
    n = draw(st.integers(2, 7))
    order = draw(st.permutations(range(n)))
    arcs = [(order[i], order[(i + 1) % n], 1) for i in range(n)]
    arcs += draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.integers(1, 3)).filter(lambda a: a[0] != a[1]), max_size=14))
    return from_arcs(n, arcs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(strong_multigraphs())
def test_scc_partition_matches_whole_residual(g):
    # on a strongly connected graph the partition read on the latest side
    # alone is the whole residual's, for every ordered pair and so for every
    # flow value the graph reaches; at t = lambda + 1 good_partition is it
    for v in g.vertices():
        for s in g.vertices():
            if v == s:
                continue
            fs = flow_state(g, v, s)
            want = WholeResidual(fs).partition()
            assert fs.scc_partition() == want
            assert pq_graph(g, v, s) == want
            t = fs.value + 1
            assert good_partition(flow_state(g, v, s, t), t) == want
