"""Vertex partitions: refinement algebra and the per-sample partition
constructions used to separate vertices across large minimal out-sets.

Every good partition comes from one recursion, good_partition(fs, t), on
the (v, s)-flow fs its caller ran, capped at t.  The driver asks it at
t = k+2 for every sampled vertex with lambda(v, s) <= k+1, right after that
vertex's flow into the vertices it has certified at lambda(u, s) >= k+2.
The paper's (k+3) refinement of one (k+2)-connected component is the same
call at t = k+3, for lambda(v, s) in {k, k+1, k+2}; no driver runs it.
For a target connectivity t and a maximum flow of value lam < t: at
lam = t-1 the partition is the strongly connected components of the residual
graph, the min-cut DAG's nodes, read on the latest side alone (g is strongly
connected, so the rest is the root's component); below that, the latest min
cut is contracted into z, each distinct exit head x != s of z's lam
outgoing edges is merged into z and gets one flow capped at t, whose value
must exceed lam and, when it stays below t, drives the same recursion right
away, and then the (t-lam)-edge-connected components are taken with z's
outgoing edges removed.  lam rises on every level, so the depth is at most
t-lam, and the min-cut DAG and the latest min cut are the same for every
maximum flow, so no flow is run twice.  Contraction keeps the ids of the
vertices it does not merge, so each part is read back on g with every
missing vertex in the block of the contracted one.
"""

from __future__ import annotations

from .digraph import GraphError, contract


class Partition:
    """A partition of a fixed vertex universe.

    Block ids are dense and canonical: blocks are numbered by their smallest
    member, so equal partitions compare equal and outputs are byte-stable.
    """

    __slots__ = ("universe", "label", "n_blocks")

    def __init__(self, universe, label, n_blocks):
        self.universe = universe
        self.label = label
        self.n_blocks = n_blocks

    @classmethod
    def from_key(cls, universe, key_of):
        """Group universe members by an arbitrary key function."""
        universe = tuple(sorted(universe))
        remap = {}
        label = {}
        for v in universe:
            k = key_of(v)
            if k not in remap:
                remap[k] = len(remap)
            label[v] = remap[k]
        return cls(universe, label, len(remap))

    @classmethod
    def from_blocks(cls, universe, blocks):
        owner = {}
        for i, block in enumerate(blocks):
            for v in block:
                if v in owner:
                    raise ValueError(f"vertex {v} in two blocks")
                owner[v] = i
        universe = tuple(sorted(universe))
        if set(owner) != set(universe):
            raise ValueError("blocks do not cover the universe")
        return cls.from_key(universe, owner.__getitem__)

    def same_block(self, u, v):
        return self.label[u] == self.label[v]

    def blocks(self):
        out = [[] for _ in range(self.n_blocks)]
        for v in self.universe:
            out[self.label[v]].append(v)
        return out

    def restrict(self, subset):
        subset = tuple(sorted(subset))
        return Partition.from_key(subset, self.label.__getitem__)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.universe == other.universe and self.label == other.label

    def __hash__(self):
        return hash((self.universe, tuple(self.label[v] for v in self.universe)))

    def __repr__(self):
        return f"Partition({self.blocks()})"


def refine(p, q):
    """Common refinement: blocks are the nonempty pairwise intersections."""
    if p.universe != q.universe:
        raise ValueError("partitions over different universes")
    pl, ql = p.label, q.label
    return Partition.from_key(p.universe, lambda v: (pl[v], ql[v]))


def refine_many(parts):
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to refine")
    acc = parts[0]
    for p in parts[1:]:
        acc = refine(acc, p)
    return acc


def partition_from_msets(results, universe, ordinary):
    """Group ordinary vertices by their (found) minimal-set members.

    Vertices whose search came back empty share one block with all auxiliary
    vertices of the universe.
    """
    ordinary = set(ordinary)

    def key(v):
        if v not in ordinary:
            return ()
        res = results.get(v)
        if res is None or not res.found:
            return ()
        return tuple(sorted(res.members))

    return Partition.from_key(universe, key)


# -- component partitions by repeated bounded flow ----------------------------

def ecc_naive(g, c):
    """Classes of mutual bounded connectivity >= c via pairwise flows.

    Stands in for the dedicated linear-time 2/3-edge-connected-component
    algorithms.  Mutual c-connectivity is an equivalence relation, so each
    vertex is compared with one pivot per class, by a flow into the pivot on
    g and one on its reverse, a view that copies no edge.  Both flows run
    into the vertices already certified at >= c against the pivot, which by
    the lemma in the flow module gives the same answers as flows into the
    pivot alone.
    """
    from .flow import lambda_bounded
    if c < 1:
        raise ValueError("c must be >= 1")
    verts = sorted(g.vertices())
    gr = g.reversed()
    blocks = []
    unassigned = verts
    while unassigned:
        pivot = unassigned[0]
        fwd = bytearray(g.n_slots())
        bwd = bytearray(g.n_slots())
        fwd[pivot] = bwd[pivot] = 1
        block = [pivot]
        rest = []
        for v in unassigned[1:]:
            if (lambda_bounded(g, v, pivot, c, fwd) >= c
                    and lambda_bounded(gr, v, pivot, c, bwd) >= c):
                block.append(v)
            else:
                rest.append(v)
        blocks.append(block)
        unassigned = rest
    return Partition.from_blocks(verts, blocks)


# -- good partitions ----------------------------------------------------------

def good_partition(fs, t):
    """Good partition of fs's graph at target connectivity t, the recursion
    of the module docstring, from fs, a (v, s)-flow capped at t, into s
    alone or into vertices certified at lambda(u, s) >= t as well.

    Needs 1 <= lambda(v, s) < t, so that fs is a maximum flow, and the
    graph strongly connected, which the contractions of the recursion keep.
    It splits no pair of vertices that are mutually t-connected, and it
    separates every ordinary u with v inside its minimal (t-1)-out set from
    the vertices outside that set.  Each distinct exit head x gets a flow
    into a copy of fs.sinks with x, merged away, unmarked: contraction
    never lowers lambda(u, s), and no marked vertex lies in the contracted
    latest side, so the other marks stay certified.  A merged exit head
    whose flow does not exceed lam means the contracted cut was not the
    latest one.
    """
    from .flow import flow_state
    lam, s = fs.value, fs.sink
    if lam >= t:
        raise GraphError(f"expected lambda({fs.source},{s}) below t={t}, "
                         f"found >= {lam}")
    if lam < 1:
        raise GraphError(f"lambda({fs.source},{s})=0: graph is not strongly "
                         "connected")
    if lam == t - 1:
        return fs.scc_partition()
    g = fs.overlay.g
    universe = g.vertices()

    def on_g(part, rep):
        # contraction keeps the survivors' ids: a vertex of g missing from
        # the contracted graph is inside its contracted vertex rep
        label, at_rep = part.label, part.label[rep]
        return Partition.from_key(universe, lambda u: label.get(u, at_rep))

    gz, z = contract(g, fs.latest_side())
    cut_edges = list(gz.out_edges(z))
    parts = []
    for x in dict.fromkeys(gz.head(e) for e in cut_edges):
        if x == s:
            continue
        gx, zx = contract(gz, {z, x})
        sinks = fs.sinks + bytearray(gx.n_slots() - len(fs.sinks))
        sinks[x] = 0
        fx = flow_state(gx, zx, s, t, sinks)
        if fx.value <= lam:
            raise GraphError("latest mincut violated: contracted connectivity "
                             f"{fx.value} not above {lam}")
        if fx.value < t:
            parts.append(on_g(good_partition(fx, t), zx))
    # gz is private to this call, so z's out-edges are stripped in place once
    # the exit heads are done with it; the refinement ignores part order
    for e in cut_edges:
        gz.delete_edge(e)
    parts.append(on_g(ecc_naive(gz, t - lam), z))
    return refine_many(parts)


# not called here; perfbench's tracer wraps this name in this module
good_partition_full = good_partition
