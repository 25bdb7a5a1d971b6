"""Bounded augmenting-path machinery over reversal overlays: local edge
connectivity, minimal and latest min-cut sides, and the partition into the
nodes of the DAG of all minimum cuts (Picard-Queyranne), read on the latest
side alone.

Each parallel edge is its own unit-capacity channel, so pushing one unit of
flow along a path is exactly reversing that path in the overlay, and the
overlay itself *is* the residual graph.  Every flow runs into a set of
marked vertices: each augmenting path is found by one forward search from
the source that stops at the first marked vertex it sees.  The sides and the
min-cut DAG partition read off a maximum flow do not depend on which maximum
flow the searches found.

A pass that asks min(lambda(v, s), c) for many v in turn can stop each flow
at the vertices already certified: if lambda(u, s) >= c for every u in a
set C, then min(lambda(v, s), c) = min(lambda(v, C | {s}), c), and below c
the (v, s)-cuts of value < c are exactly the (v, C | {s})-cuts of that
value, because such a cut X avoids C (any u in X would give
d+(X) >= lambda(u, s) >= c).  So the minimal and the latest min-cut sides
of the two flows are the same sets.  flow_state runs such a flow when it is
given sinks, a bytearray marking s and C, and marks v when the flow reaches
c; without sinks it marks s alone, in a private bytearray.  It takes the
one-edge paths into the marked vertices before any search, which is exact
because any set of edge-disjoint paths extends to a maximum flow.
"""

from __future__ import annotations

from itertools import islice

from .digraph import GraphError, ReversalOverlay
from .partitions import Partition


class FlowState:
    """A (source, sink)-flow into the vertices marked in sinks, held as path
    reversals on a private overlay.

    value equals the number of augmenting paths reversed, and the overlay
    journal holds exactly the edges of those paths; a flow that its one-edge
    paths alone take to its cap has no overlay (None).
    """

    __slots__ = ("overlay", "value", "source", "sink", "sinks")

    def __init__(self, overlay, value, source, sink, sinks):
        self.overlay = overlay
        self.value = value
        self.source = source
        self.sink = sink
        self.sinks = sinks

    # The readers below need a maximum flow: a flow below its cap is one.
    # Their results do not depend on which maximum flow was found, and below
    # the cap they are those of the flow to the sink alone (module docstring).

    def minimal_side(self):
        """The inclusion-wise minimum min-cut side, as a frozenset: the
        residual reach of the source."""
        return frozenset(self.overlay.bfs([self.source]))

    def latest_side(self):
        """The inclusion-wise maximum min-cut side, as a frozenset:
        everything that reaches no marked vertex in the residual.

        Vertices marked after the flow ran lie outside it too: below the
        cap no certified vertex lies in a min-cut side, and a vertex that
        reaches one reaches a vertex marked when the flow ran.
        """
        ov = self.overlay
        live = ov.g.vertices()
        sinks = self.sinks
        blocked = set(ov.bfs([x for x in live if sinks[x]], backward=True))
        return frozenset(set(live) - blocked)

    def scc_partition(self):
        """The partition of the vertices into the strongly connected
        components of the residual graph, the min-cut DAG's nodes
        (Picard-Queyranne), with everything outside the latest side L
        under one key.

        Needs g strongly connected.  Then, for a flow to the sink alone,
        the sink reaches every vertex in the residual (along unsaturated
        edges, and backwards along flow paths and cycles), so everything
        outside L is the sink's component and L is closed under residual
        successors: the components are read off L alone.  A flow into
        marked vertices has the same components inside L: cutting the flow
        to the sink alone where each path first meets a marked vertex gives
        a maximum flow into them that agrees with it on every edge inside L
        (every edge leaving L is saturated and none entering L carries
        flow), and residual components are the same for every maximum flow
        of one network.
        """
        ov = self.overlay
        latest = self.latest_side()
        succ = {x: [y for _e, y in ov.succ(x)] for x in latest}
        comp = _tarjan(latest, succ)
        return Partition.from_key(ov.g.vertices(), lambda x: comp.get(x, -1))


def flow_state(g, src, dst, cap=None, sinks=None):
    """Run augmenting-path max-flow from src into marked vertices, up to cap
    units.

    sinks, when given, is a caller-owned bytearray over vertex slots that
    marks dst and vertices certified at lambda(u, dst) >= cap; src is marked
    in it when the flow reaches cap.  Without sinks, dst alone is marked,
    and each augmenting path is a forward search from src that may read
    the whole graph before it meets dst, O(m) per path; the pipeline's
    flows all pass sinks.  Either way the value and, below cap, every
    reader of the FlowState are those of the flow to dst alone (the lemma
    in the module docstring).  When the one-edge paths into marked vertices
    reach cap, no overlay is built.
    """
    if src == dst:
        raise GraphError("source and sink must differ")
    if not (g.is_live(src) and g.is_live(dst)):
        raise GraphError("source and sink must be live")
    if cap is not None and cap < 1:
        raise GraphError("cap must be >= 1")
    if sinks is None:
        sinks = bytearray(g.n_slots())
        sinks[dst] = 1
    elif cap is None:
        raise GraphError("a flow into sinks needs a cap")
    elif not sinks[dst]:
        raise GraphError("sinks must mark the sink")
    elif sinks[src]:
        raise GraphError(f"source {src} is already marked in sinks")
    # the one-edge paths first, from one scan of src's out-list
    direct = list(islice((e for e in g.out_edges(src) if sinks[g.e_head[e]]),
                         cap))
    value = len(direct)
    if value == cap:
        sinks[src] = 1
        return FlowState(None, value, src, dst, sinks)
    ov = ReversalOverlay(g)
    ov.reverse_trusted(direct)
    while cap is None or value < cap:
        path = ov.path_into(src, sinks)
        if path is None:
            break
        ov.reverse_trusted(path)
        value += 1
    if value == cap:
        sinks[src] = 1
    return FlowState(ov, value, src, dst, sinks)


def lambda_bounded(g, u, v, cap, sinks=None):
    """min(lambda(u, v), cap) using at most cap augmentations, into sinks
    as flow_state takes them; without sinks each augmentation may search
    the whole graph (see flow_state)."""
    return flow_state(g, u, v, cap, sinks).value


def minimal_mincut_side(g, v, s):
    """The unique inclusion-wise minimum min-cut side containing v, not s."""
    return flow_state(g, v, s).minimal_side()


def latest_mincut(g, v, s):
    """The inclusion-wise maximum min-cut side containing v, excluding s."""
    return flow_state(g, v, s).latest_side()


def _tarjan(universe, succ):
    """Iterative Tarjan SCC over universe, closed under succ: a dict from
    each vertex to its component's root, the member Tarjan met first."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comp_of = {}
    counter = [0]

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
                while True:
                    y = stack.pop()
                    on_stack.discard(y)
                    comp_of[y] = x
                    if y == x:
                        break
    return comp_of


# not called here; perfbench's tracer wraps this name in this module
def pq_graph(g, v, s):
    return flow_state(g, v, s).scc_partition()
