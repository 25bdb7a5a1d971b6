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

A pass that asks min(lambda(v, s), c) for many v in turn can stop each flow
at the vertices already certified: if lambda(u, s) >= c for every u in a
set C, then min(lambda(v, s), c) = min(lambda(v, C | {s}), c), and below c
the minimal min-cut sides of (v, s) and (v, C | {s}) are the same set,
because a v-s cut X of value < c avoids C (any u in X would give
d+(X) >= lambda(u, s) >= c).  CertifiedSink runs these flows.
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


class CertifiedSink:
    """Capped flows from single vertices into s and the vertices certified
    so far to have lambda(u, s) >= cap (the lemma in the module docstring).

    A vertex whose flow reaches the cap is certified, so the flows of later
    vertices stop at the first certified vertex they reach instead of going
    on to s; on a graph where most vertices are well connected to s, a flow
    costs the edges around its source.  One overlay serves every flow and
    is rewound after each.
    """

    __slots__ = ("overlay", "marked", "cap")

    def __init__(self, g, s, cap):
        if not g.is_live(s):
            raise GraphError("sink must be live")
        if cap < 1:
            raise GraphError("cap must be >= 1")
        self.overlay = ReversalOverlay(g)
        self.marked = bytearray(g.n_slots())
        self.marked[s] = 1
        self.cap = cap

    def certify(self, u):
        """Add u, known to have lambda(u, s) >= cap, to the sinks."""
        self.marked[u] = 1

    def flow(self, v):
        """(min(lambda(v, s), cap), side): side lists v's minimal min-cut
        side when the value is below the cap, and is None (and v certified)
        when it reaches the cap."""
        ov = self.overlay
        if not ov.g.is_live(v) or self.marked[v]:
            raise GraphError(f"vertex {v} is not a live uncertified vertex")
        start = ov.mark()
        value = 0
        side = None
        while value < self.cap:
            path, side = ov.path_into(v, self.marked)
            if path is None:
                break
            ov.reverse_trusted(path)
            value += 1
        ov.rewind(start)
        if side is None:
            self.marked[v] = 1
        return value, side


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

    def partition(self):
        return Partition.from_key(self.universe, self.scc_id.__getitem__)


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
