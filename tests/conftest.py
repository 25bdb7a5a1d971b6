"""Shared helpers: seeded random graphs, planted fixtures, fingerprinting."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

import pytest

import kecc.driver
import kecc.partitions
from kecc.digraph import AUXILIARY, Digraph, GraphError, contract
from kecc.flow import flow_state
from kecc.local_search import SearchBudget
from kecc.partitions import Partition, ecc_naive, refine_many


def singletons(universe):
    """The partition of universe into one block per vertex."""
    return Partition.from_key(universe, lambda v: v)


def one_block(universe):
    """The partition of universe into a single block."""
    return Partition.from_key(universe, lambda v: 0)


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
    """Assert edge-list/counter consistency of a graph: each live edge sits
    exactly once in its tail's out-list and once in its head's in-list, and
    no dead edge is listed."""
    n_seen = sum(1 for v in range(len(g.kind)) if g.v_alive[v])
    assert n_seen == g.n_live, "vertex counter drift"
    assert len(g.out) == len(g.inn) == len(g.kind), "list count drift"
    outs = [e for ids in g.out for e in ids]
    ins = [e for ids in g.inn for e in ids]
    for v in range(len(g.kind)):
        for e in g.out[v]:
            assert g.e_alive[e], "dead edge in out-list"
            assert g.e_tail[e] == v, f"out-list of {v} holds edge {e}"
        for e in g.inn[v]:
            assert g.e_alive[e], "dead edge in in-list"
            assert g.e_head[e] == v, f"in-list of {v} holds edge {e}"
    live = [e for e in range(len(g.e_tail)) if g.e_alive[e]]
    assert sorted(outs) == sorted(ins) == live, "edge listed twice or not"
    assert len(live) == g.m_live, "edge counter drift"


def reach(step, start):
    """Every vertex reachable from start, where step(x) lists x's
    neighbours."""
    seen = {start}
    todo = [start]
    while todo:
        for y in step(todo.pop()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


class WholeResidual:
    """The residual graph of a maximum flow over every vertex, with its
    strongly connected components numbered by smallest member: the min-cut
    DAG (Picard-Queyranne) that FlowState.scc_partition reads on the latest
    side alone.  Each component is a forward reach intersected with a
    backward reach, so this reference shares no code with the library's
    Tarjan."""

    def __init__(self, fs):
        ov = fs.overlay
        self.universe = tuple(sorted(ov.g.vertices()))
        self.succ = {x: [y for _e, y in ov.succ(x)] for x in self.universe}
        self.source = fs.source
        self.sink = fs.sink
        pred = {x: [y for _e, y in ov.pred(x)] for x in self.universe}
        self.scc_id = {}
        self.n_scc = 0
        for x in self.universe:
            if x not in self.scc_id:
                for y in (reach(self.succ.__getitem__, x)
                          & reach(pred.__getitem__, x)):
                    self.scc_id[y] = self.n_scc
                self.n_scc += 1

    def partition(self):
        return Partition.from_key(self.universe, self.scc_id.__getitem__)


def whole_residual(g, v, s):
    """The WholeResidual of an uncapped (v, s)-flow."""
    return WholeResidual(flow_state(g, v, s))


def good_partition_by_maps(fs, t):
    """The good partition read the way it was before contraction was relied
    on to keep survivor ids: one exit-head flow and recursion per cut edge,
    repeated heads included, and every part pulled back onto g through an
    explicit map from each vertex of g to its image in the contracted
    graph."""
    lam, s = fs.value, fs.sink
    assert 1 <= lam < t
    if lam == t - 1:
        return fs.scc_partition()
    g = fs.overlay.g
    universe = tuple(sorted(g.vertices()))

    def pull_back(part, image):
        return Partition.from_key(universe, lambda u: part.label[image[u]])

    latest = fs.latest_side()
    gz, z = contract(g, latest)
    to_gz = {u: (z if u in latest else u) for u in universe}
    cut_edges = list(gz.out_edges(z))
    parts = []
    for e in cut_edges:
        x = gz.head(e)
        if x == s:
            continue
        gx, zx = contract(gz, {z, x})
        sinks = fs.sinks + bytearray(gx.n_slots() - len(fs.sinks))
        sinks[x] = 0
        fx = flow_state(gx, zx, s, t, sinks)
        assert fx.value > lam
        if fx.value < t:
            to_gx = {u: (zx if to_gz[u] in (z, x) else to_gz[u])
                     for u in universe}
            parts.append(pull_back(good_partition_by_maps(fx, t), to_gx))
    for e in cut_edges:
        gz.delete_edge(e)
    parts.append(pull_back(ecc_naive(gz, t - lam), to_gz))
    return refine_many(parts)


@contextmanager
def strongly_connected_audit():
    """Wrap good_partition where it is looked up, in kecc.partitions for the
    recursion and in kecc.driver, which binds the name at import, for the
    top-level call, so that every graph it receives must be strongly
    connected: forward and backward reach from the root s cover every live
    vertex.  The latest-side reading of the min-cut DAG partition is exact
    only then.  Yields the list of audited graph sizes."""
    real = kecc.partitions.good_partition
    sizes = []

    def audited(fs, t):
        g, s = fs.overlay.g, fs.sink
        live = set(g.vertices())
        assert reach(lambda x: (y for _e, y in g.succ(x)), s) == live
        assert reach(lambda x: (y for _e, y in g.pred(x)), s) == live
        sizes.append(len(live))
        return real(fs, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kecc.partitions, "good_partition", audited)
        mp.setattr(kecc.driver, "good_partition", audited)
        yield sizes


def pq_dag(pq):
    """Successor sets of the condensation of a WholeResidual, by component
    id."""
    dag = {c: set() for c in range(pq.n_scc)}
    for x in pq.universe:
        cx = pq.scc_id[x]
        for y in pq.succ[x]:
            cy = pq.scc_id[y]
            if cx != cy:
                dag[cx].add(cy)
    return dag


def closed_sets(pq, guard=20):
    """All reachability-closed vertex sets of a WholeResidual containing the
    flow source and excluding the sink: the minimum cuts.  Exponential,
    guarded to small component counts."""
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
    return (g.kind, g.v_alive, g.e_tail, g.e_head, g.e_alive, g.out, g.inn,
            g.n_live, g.m_live)


def fingerprint(g):
    """Structural hash of the full graph state, edge lists included."""
    return hash((
        tuple(g.kind), tuple(g.v_alive), tuple(g.e_tail), tuple(g.e_head),
        tuple(g.e_alive), tuple(map(tuple, g.out)), tuple(map(tuple, g.inn)),
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
    v = g.add_vertex(AUXILIARY)
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
