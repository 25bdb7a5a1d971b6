"""Property tests of the overlay traversal kernels against brute-force
reachability, on plain graphs and on lazily contracted ones, each with
random paths reversed, and of the flows built on them against the oracle."""

from __future__ import annotations

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from kecc.digraph import Digraph, ReversalOverlay, from_arcs
from kecc.flow import flow_state
from kecc.oracle import lambda_oracle

from conftest import random_walk, step_limited

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def overlays(draw):
    n = draw(st.integers(3, 8))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda a: a[0] != a[1]), max_size=24))
    g = Digraph()
    g.add_vertices(n)
    for u, v in arcs:
        g.add_edge(u, v)
    if draw(st.booleans()):
        members = draw(st.sets(st.integers(0, n - 1), min_size=2,
                               max_size=n - 1))
        g.contract_lazy(members, draw(st.sampled_from(sorted(members))))
    ov = ReversalOverlay(g)
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 3))):
        path = random_walk(g, ov, rng, draw(st.sampled_from(g.vertices())))
        if path:
            ov.reverse_path(path)
    return ov


def brute_reach(ov, src, backward=False):
    arcs = [(ov.tail(e), ov.head(e)) for e in ov.g.edges()]
    if backward:
        arcs = [(y, x) for x, y in arcs]
    seen = {src}
    grown = True
    while grown:
        grown = False
        for x, y in arcs:
            if x in seen and y not in seen:
                seen.add(y)
                grown = True
    return seen


def assert_tree_path(ov, tree, src, dst):
    """tree_path yields a walk from src to dst; the tree is checked first,
    so that a broken one fails here instead of sending tree_path round a
    cycle."""
    y = dst
    for _ in range(len(tree)):
        if y == src:
            break
        assert tree[y] >= 0 and ov.head(tree[y]) == y
        y = ov.tail(tree[y])
    assert y == src
    cur = src
    for e in ov.tree_path(tree, src, dst):
        assert ov.tail(e) == cur
        cur = ov.head(e)
    assert cur == dst


@PROPERTY
@given(overlays())
def test_reach_matches_brute_force(ov):
    for src in ov.g.vertices():
        for backward in (False, True):
            queue = ov.bfs([src], backward)
            assert queue[0] == src and len(set(queue)) == len(queue)
            assert set(queue) == brute_reach(ov, src, backward)


@PROPERTY
@given(overlays(), st.data())
def test_path_into_matches_brute_force(ov, data):
    verts = ov.g.vertices()
    src = data.draw(st.sampled_from(verts))
    targets = data.draw(st.sets(
        st.sampled_from([v for v in verts if v != src]), min_size=1))
    marked = bytearray(ov.g.n_slots())
    for x in targets:
        marked[x] = 1
    # a search stuck in a loop fails here; a malformed tree fails in
    # assert_tree_path before tree_path could go round a cycle
    tree, end = step_limited(20000, ov.path_into, src, marked)
    reach = brute_reach(ov, src)
    assert (end is None) == targets.isdisjoint(reach)
    if end is None:
        # a failed search has seen the whole reach of src
        assert set(tree) == reach
    else:
        assert marked[end]
        assert_tree_path(ov, tree, src, end)
        path = ov.tree_path(tree, src, end)
        assert len(set(path)) == len(path)
        cur = src
        for e in path:
            # the search stops at the first marked vertex it reaches
            assert not marked[cur]
            assert ov.g.e_alive[e] and ov.tail(e) == cur
            cur = ov.head(e)
    dst = data.draw(st.sampled_from(sorted(targets)))
    cap = data.draw(st.integers(1, 4))
    fs = step_limited(20000, flow_state, ov.g, src, dst, cap)
    assert fs.value == lambda_oracle(ov.g, src, dst, cap)


@PROPERTY
@given(overlays(), st.data())
def test_bounded_search_keeps_budget(ov, data):
    verts = ov.g.vertices()
    src = data.draw(st.sampled_from(verts))
    target = data.draw(st.sampled_from([-1] + [v for v in verts if v != src]))
    limit = data.draw(st.integers(0, 30))
    scanned = []
    queue, tree, hit, count = ov.bounded_bfs(src, target, limit, scanned)
    assert count == len(scanned) <= limit
    assert len(set(scanned)) == count
    full = ov.bfs([src])
    assert queue == full[:len(queue)]
    if hit:
        assert target in full
        assert_tree_path(ov, tree, src, target)
    elif count < limit:
        # the search ran out of frontier, not of budget
        assert queue == full and target not in full
        assert count == sum(1 for x in queue for _ in ov.succ(x))


def test_bounded_search_costs_what_it_discovers():
    # the same search on g and on g plus a large component it cannot reach
    # scans the same edges, builds the same tree and allocates as much; the
    # overlay's flip array, built before the call, is the one cost of the
    # whole graph
    near = [(v, (v + 1) % 40, 2) for v in range(40)]
    far = [(40 + i, 40 + (i + 1) % 20000, 2) for i in range(20000)]
    for target, limit in ((39, 200), (39, 50), (-1, 500)):
        runs = []
        for g in (from_arcs(40, near), from_arcs(20040, near + far)):
            ov = ReversalOverlay(g)
            ov.bounded_bfs(0, target, limit)  # warm the interpreter's caches
            scanned = []
            # a full collection empties CPython's free lists, so the peak
            # counts every allocation of the search, not only those the
            # free lists could not serve
            gc.collect()
            tracemalloc.start()
            try:
                got = ov.bounded_bfs(0, target, limit, scanned)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs.append((got, scanned, peak))
        assert runs[0] == runs[1]
