"""Bounded augmenting-path machinery over reversal overlays: local edge
connectivity, minimal and latest min-cut sides, and the DAG representation
of all minimum cuts (Picard-Queyranne graph).

Each parallel edge is its own unit-capacity channel, so pushing one unit of
flow along a path is exactly reversing that path in the overlay, and the
overlay itself *is* the residual graph.  Each augmenting path is found by
a search that grows from the source and from the sink at once and stops
where the two meet, so a path near both ends costs the edges around it, not
a sweep of the graph.  The sides and the min-cut DAG read off a maximum flow
do not depend on which maximum flow the searches found.
"""

from __future__ import annotations

from .digraph import GraphError, ReversalOverlay
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

    # The readers below need a maximum flow: a flow below its cap is one.
    # Their results do not depend on which maximum flow was found.

    def minimal_side(self):
        """The inclusion-wise minimum min-cut side, as a frozenset: the
        residual reach of the source."""
        return frozenset(self.overlay.bfs(self.source))

    def latest_side(self):
        """The inclusion-wise maximum min-cut side, as a frozenset:
        everything that cannot reach the sink in the residual."""
        blocked = set(self.overlay.bfs(self.sink, backward=True))
        return frozenset(set(self.overlay.g.vertices()) - blocked)

    def pq(self):
        """The min-cut DAG representation (Picard-Queyranne graph).

        Each unflipped parallel edge contributes its forward copy, each
        flipped one only its backward copy (it is saturated), so the residual
        adjacency is exactly the overlay view of the graph.
        """
        ov = self.overlay
        universe = tuple(sorted(ov.g.vertices()))
        succ = {x: [y for _e, y in ov.succ(x)] for x in universe}
        return PQGraph(universe, succ, self.source, self.sink)


def flow_state(g, src, dst, cap=None):
    """Run augmenting-path max-flow from src to dst, up to cap units."""
    if src == dst:
        raise GraphError("source and sink must differ")
    if not (g.is_live(src) and g.is_live(dst)):
        raise GraphError("source and sink must be live")
    ov = ReversalOverlay(g)
    value = 0
    while cap is None or value < cap:
        path = ov.augmenting_path(src, dst)
        if path is None:
            break
        ov.reverse_trusted(path)
        value += 1
    return FlowState(ov, value, src, dst)


def lambda_bounded(g, u, v, cap):
    """min(lambda(u, v), cap) using at most cap augmentations."""
    if cap < 1:
        raise GraphError("cap must be >= 1")
    return flow_state(g, u, v, cap).value


def minimal_mincut_side(g, v, s):
    """The unique inclusion-wise minimum min-cut side containing v, not s."""
    return flow_state(g, v, s).minimal_side()


def latest_mincut(g, v, s):
    """The inclusion-wise maximum min-cut side containing v, excluding s."""
    return flow_state(g, v, s).latest_side()


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
    """The min-cut DAG representation for the (v, s)-max-flow."""
    return flow_state(g, v, s).pq()
