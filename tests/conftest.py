"""Shared helpers: seeded random graphs, planted fixtures, fingerprinting."""

from __future__ import annotations

import random
import sys

import pytest

from kecc.digraph import AUX_OTHER, Digraph, GraphError
from kecc.local_search import SearchBudget


def random_digraph(rng, n, m):
    """Random multigraph without self-loops; may be disconnected."""
    g = Digraph()
    g.add_vertices(n)
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
            added += 1
    return g


def random_strongly_connected(rng, n, extra):
    """Random permutation cycle plus extra arcs: strongly connected."""
    g = Digraph()
    g.add_vertices(n)
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        g.add_edge(perm[i], perm[(i + 1) % n])
    added = 0
    while added < extra:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
            added += 1
    return g


def random_walk(g, ov, rng, start, max_len=12):
    """Edge-distinct directed walk through the overlay, as an edge list."""
    used = set()
    cur = start
    path = []
    for _ in range(max_len):
        options = [(e, y) for e, y in ov.succ(cur) if e not in used]
        if not options or (path and rng.random() < 0.25):
            break
        e, y = options[rng.randrange(len(options))]
        used.add(e)
        path.append(e)
        cur = y
    return path


def recording_budget(log):
    """A SearchBudget that appends each of its instances to log; patched over
    kecc.local_search.SearchBudget, it audits every search's budget."""

    class Recorded(SearchBudget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            log.append(self)

    return Recorded


class _Stuck(Exception):
    pass


def step_limited(steps, fn, *args):
    """fn(*args), or a failed assertion once it has traced `steps` events,
    so that a search stuck in a loop fails, and shrinks, like any other
    counterexample.  The assertion is raised outside the handler, which
    releases the interrupted frames."""
    left = [steps]

    def trace(_frame, _event, _arg):
        left[0] -= 1
        if left[0] < 0:
            raise _Stuck
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        return fn(*args)
    except _Stuck:
        pass
    finally:
        sys.settrace(previous)
    raise AssertionError(f"no result within {steps} traced steps")


def induced(g, members):
    """Subgraph induced by a vertex set, compacted; returns (graph, mapping)."""
    memb = set(members)
    h = Digraph()
    vmap = {}
    for v in sorted(memb):
        if not g.is_live(v):
            raise GraphError(f"vertex {v} is not live")
        vmap[v] = h.add_vertex(g.kind[v])
    for v in sorted(memb):
        for e in g.out_edges(v):
            hd = g.head(e)
            if hd in memb:
                h.add_edge(vmap[v], vmap[hd])
    return h, vmap


def check(g):
    """Assert ring/counter consistency of a graph."""
    n_seen = sum(1 for v in range(len(g.kind)) if g.v_alive[v])
    assert n_seen == g.n_live, "vertex counter drift"
    m_out = 0
    m_in = 0
    for v in range(len(g.kind)):
        deg = 0
        for e in g.out_edges(v):
            assert g.e_alive[e], "dead edge in out-ring"
            assert g.resolve(g.e_tail[e]) == g.resolve(v)
            deg += 1
            assert deg <= len(g.e_tail), f"out-ring of {v} does not close"
        assert deg == g.out_deg[v], f"out_deg drift at {v}"
        m_out += deg
        deg = 0
        for e in g.in_edges(v):
            assert g.e_alive[e], "dead edge in in-ring"
            assert g.resolve(g.e_head[e]) == g.resolve(v)
            deg += 1
            assert deg <= len(g.e_tail), f"in-ring of {v} does not close"
        assert deg == g.in_deg[v], f"in_deg drift at {v}"
        m_in += deg
    m_alive = sum(1 for e in range(len(g.e_tail)) if g.e_alive[e])
    assert m_out == m_in == m_alive == g.m_live, "edge counter drift"


def pq_dag(pq):
    """Successor sets of the condensation of a PQGraph, by component id."""
    dag = {c: set() for c in range(pq.n_scc)}
    for x in pq.universe:
        cx = pq.scc_id[x]
        for y in pq.succ[x]:
            cy = pq.scc_id[y]
            if cx != cy:
                dag[cx].add(cy)
    return dag


def closed_sets(pq, guard=20):
    """All reachability-closed vertex sets of a PQGraph containing the flow
    source and excluding the sink: the minimum cuts.  Exponential, guarded
    to small component counts."""
    if pq.n_scc > guard:
        raise GraphError(f"closed-set enumeration guarded to {guard} components")
    comp_members = {}
    for x in pq.universe:
        comp_members.setdefault(pq.scc_id[x], []).append(x)
    succ_mask = [0] * pq.n_scc
    for c, targets in pq_dag(pq).items():
        for t in targets:
            succ_mask[c] |= 1 << t
    want = pq.scc_id[pq.source]
    avoid = pq.scc_id[pq.sink]
    out = []
    for mask in range(1 << pq.n_scc):
        if not (mask >> want) & 1 or (mask >> avoid) & 1:
            continue
        ok = True
        probe = mask
        while probe:
            c = (probe & -probe).bit_length() - 1
            if succ_mask[c] & ~mask:
                ok = False
                break
            probe &= probe - 1
        if ok:
            members = []
            for c in range(pq.n_scc):
                if (mask >> c) & 1:
                    members.extend(comp_members[c])
            out.append(frozenset(members))
    return out


def arrays(g):
    """Every array and counter of a graph, for exact comparison."""
    return (g.kind, g.v_alive, g.e_tail, g.e_head, g.e_alive, g.first_out,
            g.first_in, g.nxt_out, g.prv_out, g.nxt_in, g.prv_in, g.out_deg,
            g.in_deg, g.n_live, g.m_live, g.dsu)


def fingerprint(g):
    """Structural hash of the full graph state, rings included."""
    return hash((
        tuple(g.kind), tuple(g.v_alive), tuple(g.e_tail), tuple(g.e_head),
        tuple(g.e_alive), tuple(g.first_out), tuple(g.first_in),
        tuple(g.nxt_out), tuple(g.prv_out), tuple(g.nxt_in), tuple(g.prv_in),
        g.n_live, g.m_live,
    ))


def overlay_to_digraph(ov):
    """Materialize the overlay view as a plain graph (same vertex ids)."""
    g = ov.g
    h = Digraph()
    for v in range(g.n_slots()):
        h.add_vertex(g.kind[v])
        if not g.v_alive[v]:
            h.v_alive[v] = False
            h.n_live -= 1
    for v in g.vertices():
        for e, y in ov.succ(v):
            h.add_edge(v, y)
    return h


def planted_deficient():
    """Graph where an auxiliary vertex v with lambda(v, s) = 2 sits inside
    the minimal 3-out set of a whole ordinary cluster.

    A = K5 on 0..4 (s = 1), U = K5 on 5..9, v = 10 auxiliary.
    Edges: 5->0, 5->10 x3, 10->0 x2, 0->5 x3.  The minimal 3-out set of any
    u in U avoiding s is U + {v}; lambda(10, 1) = 2 and the graph is
    2-edge-connected with all ordinary vertices mutually 3-connected.
    """
    g = Digraph()
    g.add_vertices(10)
    v = g.add_vertex(AUX_OTHER)
    for base in (0, 5):
        for i in range(base, base + 5):
            for j in range(base, base + 5):
                if i != j:
                    g.add_edge(i, j)
    g.add_edge(5, 0)
    g.add_edge(5, v, copies=3)
    g.add_edge(v, 0, copies=2)
    g.add_edge(0, 5, copies=3)
    return g, v, 1


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
