"""Bounded augmenting-path machinery over reversal overlays: local edge
connectivity, minimal and latest min-cut sides, and the DAG representation
of all minimum cuts (Picard-Queyranne graph).

Each parallel edge is its own unit-capacity channel, so pushing one unit of
flow along a path is exactly reversing that path in the overlay, and the
overlay itself *is* the residual graph.
"""

from __future__ import annotations

from .digraph import CutSet, GraphError, ReversalOverlay
from .partitions import Partition


class FlowState:
    """A (source, sink)-flow held as path reversals on a private overlay.

    value equals the number of augmenting paths reversed, and the overlay
    journal holds exactly the edges of those paths.
    """

    __slots__ = ("overlay", "value", "source", "sink")

    def __init__(self, overlay, value, source, sink):
        self.overlay = overlay
        self.value = value
        self.source = source
        self.sink = sink


def overlay_reach(ov, src):
    """Vertices reachable from src through the overlay."""
    return set(ov.bfs(src)[0])


def overlay_co_reach(ov, dst):
    """Vertices that reach dst through the overlay."""
    return set(ov.bfs(dst, backward=True)[0])


def flow_state(g, src, dst, cap=None):
    """Run augmenting-path max-flow from src to dst, up to cap units."""
    if src == dst:
        raise GraphError("source and sink must differ")
    if not (g.is_live(src) and g.is_live(dst)):
        raise GraphError("source and sink must be live")
    ov = ReversalOverlay(g)
    value = 0
    while cap is None or value < cap:
        _queue, tree, hit = ov.bfs(src, dst)
        if not hit:
            break
        ov.reverse_path(ov.tree_path(tree, src, dst))
        value += 1
    return FlowState(ov, value, src, dst)


def lambda_bounded(g, u, v, cap):
    """min(lambda(u, v), cap) using at most cap augmentations."""
    if cap < 1:
        raise GraphError("cap must be >= 1")
    return flow_state(g, u, v, cap).value


def minimal_mincut_side(g, v, s):
    """The unique inclusion-wise minimum min-cut side containing v, not s:
    the residual reach of v after a full (v, s)-max-flow."""
    fs = flow_state(g, v, s, cap=None)
    members = overlay_reach(fs.overlay, v)
    return CutSet.compute(g, members)


def latest_mincut(g, v, s):
    """The inclusion-wise maximum min-cut side containing v, excluding s:
    everything that cannot reach s in the residual."""
    fs = flow_state(g, v, s, cap=None)
    blocked = overlay_co_reach(fs.overlay, s)
    members = set(g.vertices()) - blocked
    return CutSet.compute(g, members)


class PQGraph:
    """Residual graph of a max-flow with its strongly connected components.

    Its reachability-closed vertex sets containing the flow source and not
    the sink are exactly the minimum cuts; the partition into strongly
    connected components is the finest partition compatible with all of them.
    """

    def __init__(self, universe, succ, source, sink):
        self.universe = universe
        self.succ = succ
        self.source = source
        self.sink = sink
        self.scc_id, self.n_scc = _tarjan(universe, succ)
        dag = {i: set() for i in range(self.n_scc)}
        for x in universe:
            cx = self.scc_id[x]
            for y in succ[x]:
                cy = self.scc_id[y]
                if cx != cy:
                    dag[cx].add(cy)
        self.dag_succ = dag

    def partition(self):
        return Partition.from_key(self.universe, self.scc_id.__getitem__)

    def closed_sets(self, guard=20):
        """All reachability-closed vertex sets containing the source and
        excluding the sink; exponential, guarded to small component counts."""
        if self.n_scc > guard:
            raise GraphError(f"closed-set enumeration guarded to {guard} components")
        comp_members = {}
        for x in self.universe:
            comp_members.setdefault(self.scc_id[x], []).append(x)
        succ_mask = [0] * self.n_scc
        for c, targets in self.dag_succ.items():
            m = 0
            for t in targets:
                m |= 1 << t
            succ_mask[c] = m
        want = self.scc_id[self.source]
        avoid = self.scc_id[self.sink]
        out = []
        for mask in range(1 << self.n_scc):
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
                for c in range(self.n_scc):
                    if (mask >> c) & 1:
                        members.extend(comp_members[c])
                out.append(frozenset(members))
        return out


def _tarjan(universe, succ):
    """Iterative Tarjan SCC; component ids canonical by smallest member."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comp_of = {}
    counter = [0]
    comps = []

    for root in universe:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            x, it = work[-1]
            advanced = False
            for y in it:
                if y not in index:
                    index[y] = low[y] = counter[0]
                    counter[0] += 1
                    stack.append(y)
                    on_stack.add(y)
                    work.append((y, iter(succ[y])))
                    advanced = True
                    break
                if y in on_stack:
                    if index[y] < low[x]:
                        low[x] = index[y]
            if advanced:
                continue
            work.pop()
            if work:
                px = work[-1][0]
                if low[x] < low[px]:
                    low[px] = low[x]
            if low[x] == index[x]:
                comp = []
                while True:
                    y = stack.pop()
                    on_stack.discard(y)
                    comp.append(y)
                    if y == x:
                        break
                comps.append(comp)

    comps.sort(key=min)
    for i, comp in enumerate(comps):
        for y in comp:
            comp_of[y] = i
    return comp_of, len(comps)


def pq_graph(g, v, s):
    """Build the min-cut DAG representation for the (v, s)-max-flow.

    Each unflipped parallel edge contributes its forward copy, each flipped
    one only its backward copy (it is saturated), so the residual adjacency
    is exactly the overlay view of the graph.
    """
    fs = flow_state(g, v, s, cap=None)
    ov = fs.overlay
    universe = tuple(sorted(g.vertices()))
    succ = {x: [y for _e, y in ov.succ(x)] for x in universe}
    return PQGraph(universe, succ, v, s)
