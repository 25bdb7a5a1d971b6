"""Brute-force ground truth: bounded connectivity, component partitions,
minimal/latest separators and exhaustive separator enumeration.

Everything here is written against a plain capacity-dict view of the graph,
independently of the ring and overlay machinery, so it can be trusted to
cross-check the fast paths.  Performance is a non-goal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .partitions import Partition

ENUM_GUARD = 20


def _capacity_view(g):
    """(vertices, arcs) where arcs maps (u, v) -> multiplicity, dsu-resolved."""
    verts = sorted(g.vertices())
    arcs = {}
    for e in g.edges():
        t, h = g.ends(e)
        if t != h:
            arcs[(t, h)] = arcs.get((t, h), 0) + 1
    return verts, arcs


class _Residual:
    def __init__(self, g):
        verts, arcs = _capacity_view(g)
        self.verts = verts
        self.cap = dict(arcs)
        self.adj = {v: [] for v in verts}
        for (u, v) in arcs:
            self.adj[u].append(v)
            self.adj[v].append(u)  # room for residual back-arcs
            self.cap.setdefault((v, u), 0)

    def augment(self, src, dst):
        parent = {src: None}
        queue = deque([src])
        cap = self.cap
        while queue:
            x = queue.popleft()
            if x == dst:
                break
            for y in self.adj[x]:
                if y not in parent and cap.get((x, y), 0) > 0:
                    parent[y] = x
                    queue.append(y)
        if dst not in parent:
            return False
        y = dst
        while parent[y] is not None:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] = cap.get((y, x), 0) + 1
            y = x
        return True

    def reach(self, src):
        seen = {src}
        queue = deque([src])
        cap = self.cap
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if y not in seen and cap.get((x, y), 0) > 0:
                    seen.add(y)
                    queue.append(y)
        return seen

    def co_reach(self, dst):
        seen = {dst}
        queue = deque([dst])
        cap = self.cap
        while queue:
            y = queue.popleft()
            for x in self.adj[y]:
                if x not in seen and cap.get((x, y), 0) > 0:
                    seen.add(x)
                    queue.append(x)
        return seen


def lambda_oracle(g, u, v, cap):
    """min(lambda(u, v), cap) by augmenting paths on a capacity dict."""
    if u == v:
        raise ValueError("u and v must differ")
    res = _Residual(g)
    value = 0
    while value < cap and res.augment(u, v):
        value += 1
    return value


def all_pairs_lambda(g, cap):
    """{(u, v): min(lambda(u,v), cap)} over ordered pairs of live vertices."""
    verts = sorted(g.vertices())
    return {(u, v): lambda_oracle(g, u, v, cap)
            for u in verts for v in verts if u != v}


def mutually_connected(g, u, v, c):
    return lambda_oracle(g, u, v, c) >= c and lambda_oracle(g, v, u, c) >= c


def ecc_components(g, c):
    """Partition of live vertices into classes of mutual connectivity >= c.

    Mutual c-connectivity is an equivalence relation, so pivot grouping is
    sound: each unassigned vertex is compared against one class pivot.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    verts = sorted(g.vertices())
    blocks = []
    unassigned = list(verts)
    while unassigned:
        pivot = unassigned[0]
        block = [pivot]
        rest = []
        for v in unassigned[1:]:
            if mutually_connected(g, pivot, v, c):
                block.append(v)
            else:
                rest.append(v)
        blocks.append(block)
        unassigned = rest
    return Partition.from_blocks(verts, blocks)


class Bottom:
    """Marker: no separator of the requested size exists."""

    def __repr__(self):
        return "Bottom"


BOTTOM = Bottom()


def mset_oracle(g, v, s, c, check=False):
    """The minimal c-out set containing v and avoiding s, or BOTTOM.

    Defined when lambda(v, s) >= c.  At exactly c the unique minimal set is
    the residual reach of v after a max-flow; above c no c-out separator can
    exist at all.  With check=True on small graphs the BOTTOM verdict is
    confirmed by exhaustive enumeration.
    """
    if v == s:
        raise ValueError("v and s must differ")
    res = _Residual(g)
    value = 0
    while value <= c and res.augment(v, s):
        value += 1
    if value > c:
        if check and g.n_live <= ENUM_GUARD:
            assert not enumerate_separators(g, v, s, c), "bottom contradicted"
        return BOTTOM
    if value < c:
        raise ValueError(f"lambda({v},{s})={value} < {c}: minimal {c}-out "
                         "separator is not defined")
    members = res.reach(v)
    from .digraph import CutSet
    return CutSet.compute(g, members)


def latest_oracle(g, v, s):
    """Inclusion-wise maximum min-cut side containing v, avoiding s."""
    res = _Residual(g)
    while res.augment(v, s):
        pass
    blocked = res.co_reach(s)
    from .digraph import CutSet
    return CutSet.compute(g, set(g.vertices()) - blocked)


def enumerate_separators(g, v, s, c):
    """Every vertex set with v inside, s outside and exactly c leaving edges."""
    verts = sorted(g.vertices())
    if len(verts) > ENUM_GUARD:
        raise ValueError(f"enumeration guarded to n <= {ENUM_GUARD}")
    arcs = []
    for e in g.edges():
        t, h = g.ends(e)
        arcs.append((t, h))
    others = [u for u in verts if u != v and u != s]
    found = []
    for mask in range(1 << len(others)):
        memb = {v}
        for i, u in enumerate(others):
            if mask >> i & 1:
                memb.add(u)
        out = sum(1 for (t, h) in arcs if t in memb and h not in memb)
        if out == c:
            found.append(frozenset(memb))
    return found


@dataclass
class PartitionReport:
    ok: bool
    false_separations: list = field(default_factory=list)
    missed_separations: list = field(default_factory=list)


def verify_partition(g, partition, c, ordinary=None):
    """Check a partition against mutual c-connectivity of ordinary vertices.

    A "false separation" (a mutually c-connected pair split apart) breaks the
    one-sided guarantee and makes the report not ok; missed separations are
    listed but tolerated, as they are only probabilistically excluded.
    """
    if ordinary is None:
        ordinary = g.ordinary_vertices()
    ordinary = sorted(ordinary)
    false_seps = []
    missed = []
    for i, u in enumerate(ordinary):
        for v in ordinary[i + 1:]:
            conn = mutually_connected(g, u, v, c)
            same = partition.same_block(u, v)
            if conn and not same:
                false_seps.append((u, v))
            elif not conn and same:
                missed.append((u, v))
    return PartitionReport(not false_seps, false_seps, missed)
