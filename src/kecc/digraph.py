"""Directed multigraph with ring adjacency, edge-reversal overlays and contraction.

The graph keeps one circular doubly-linked ring of outgoing edges and one of
entering edges per vertex, so single edges can be unlinked and whole rings can
be merged in constant time.  Contraction comes in two flavours: an eager
rebuild that returns a fresh graph, and an in-place form that rewrites the
endpoints of the merged vertices' edges to the representative and splices
their rings into its rings, in time linear in the set's volume.

Whole-graph copies (reversed, materialize, contract,
contract_complement_reduced, from_arcs) each build two edge lists and hand
them to one bulk builder, _build.  Its result is identical to the graph that
sequential add_vertex and add_edge calls would build: the same edge ids, the
same ring order, the same arrays and counters, and add_edge's error for bad
input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import eq

ORDINARY = 0
AUX_KOUT = 1
AUX_KIN = 2
AUX_OTHER = 3

# Multiplicities are expanded to parallel edges, so cap the expanded size.
MAX_EDGES = 10_000_000


class GraphError(ValueError):
    pass


class Digraph:
    def __init__(self):
        self.kind = []
        self.v_alive = []
        self.e_tail = []
        self.e_head = []
        self.e_alive = []
        # circular doubly-linked rings, one out-ring and one in-ring per vertex
        self.first_out = []
        self.first_in = []
        self.nxt_out = []
        self.prv_out = []
        self.nxt_in = []
        self.prv_in = []
        self.out_deg = []
        self.in_deg = []
        self.n_live = 0
        self.m_live = 0
        # set once contract_lazy has run: traversals then skip the snapshot
        self.contracted = False
        self._version = 0
        self._adj_cache = {}

    # -- construction ------------------------------------------------------

    def add_vertex(self, kind=ORDINARY):
        v = len(self.kind)
        self.kind.append(kind)
        self.v_alive.append(True)
        self.first_out.append(-1)
        self.first_in.append(-1)
        self.out_deg.append(0)
        self.in_deg.append(0)
        self.n_live += 1
        self._version += 1
        return v

    def add_vertices(self, count, kind=ORDINARY):
        return [self.add_vertex(kind) for _ in range(count)]

    def set_ordinary(self, members):
        """Make exactly the given vertices ordinary; every other live vertex
        becomes auxiliary."""
        marked = set(members)
        for v in self.vertices():
            self.kind[v] = ORDINARY if v in marked else AUX_OTHER

    def add_edge(self, tail, head, copies=1):
        if copies < 1:
            raise GraphError("copies must be >= 1")
        if not (self.is_live(tail) and self.is_live(head)):
            raise GraphError(f"dead endpoint in edge ({tail},{head})")
        if tail == head:
            raise GraphError(f"self-loop ({tail},{head}) rejected")
        if len(self.e_tail) + copies > MAX_EDGES:
            raise GraphError("expanded edge count exceeds limit")
        self._version += 1
        out = []
        for _ in range(copies):
            e = len(self.e_tail)
            self.e_tail.append(tail)
            self.e_head.append(head)
            self.e_alive.append(True)
            self.nxt_out.append(-1)
            self.prv_out.append(-1)
            self.nxt_in.append(-1)
            self.prv_in.append(-1)
            self._ring_append(e, tail, self.first_out, self.nxt_out, self.prv_out)
            self._ring_append(e, head, self.first_in, self.nxt_in, self.prv_in)
            self.out_deg[tail] += 1
            self.in_deg[head] += 1
            self.m_live += 1
            out.append(e)
        return out

    def _ring_append(self, e, owner, first, nxt, prv):
        f = first[owner]
        if f < 0:
            first[owner] = e
            nxt[e] = e
            prv[e] = e
        else:
            last = prv[f]
            nxt[last] = e
            prv[e] = last
            nxt[e] = f
            prv[f] = e

    def _ring_unlink(self, e, owner, first, nxt, prv):
        if nxt[e] == e:
            first[owner] = -1
        else:
            nxt[prv[e]] = nxt[e]
            prv[nxt[e]] = prv[e]
            if first[owner] == e:
                first[owner] = nxt[e]
        nxt[e] = -1
        prv[e] = -1

    def delete_edge(self, e):
        if not (0 <= e < len(self.e_tail)) or not self.e_alive[e]:
            raise GraphError(f"edge {e} is not live")
        self._version += 1
        t_owner = self.tail(e)
        h_owner = self.head(e)
        self._ring_unlink(e, t_owner, self.first_out, self.nxt_out, self.prv_out)
        self._ring_unlink(e, h_owner, self.first_in, self.nxt_in, self.prv_in)
        self.out_deg[t_owner] -= 1
        self.in_deg[h_owner] -= 1
        self.e_alive[e] = False
        self.m_live -= 1

    def merge_in_rings(self, src, dst):
        """Append src's entering-edge ring onto dst's; O(1)."""
        self._merge(src, dst, self.first_in, self.nxt_in, self.prv_in)
        self.in_deg[dst] += self.in_deg[src]
        self.in_deg[src] = 0
        self._version += 1

    def merge_out_rings(self, src, dst):
        self._merge(src, dst, self.first_out, self.nxt_out, self.prv_out)
        self.out_deg[dst] += self.out_deg[src]
        self.out_deg[src] = 0
        self._version += 1

    def _merge(self, src, dst, first, nxt, prv):
        fs = first[src]
        if fs < 0:
            return
        fd = first[dst]
        first[src] = -1
        if fd < 0:
            first[dst] = fs
            return
        # splice src's cycle after dst's last element
        ld = prv[fd]
        ls = prv[fs]
        nxt[ld] = fs
        prv[fs] = ld
        nxt[ls] = fd
        prv[fd] = ls

    # -- queries -----------------------------------------------------------

    def is_live(self, v):
        return 0 <= v < len(self.kind) and self.v_alive[v]

    def tail(self, e):
        return self.e_tail[e]

    def head(self, e):
        return self.e_head[e]

    def ends(self, e):
        return self.tail(e), self.head(e)

    def out_edges(self, v):
        e = self.first_out[v]
        if e < 0:
            return
        first = e
        nxt = self.nxt_out
        while True:
            yield e
            e = nxt[e]
            if e == first:
                return

    def in_edges(self, v):
        e = self.first_in[v]
        if e < 0:
            return
        first = e
        nxt = self.nxt_in
        while True:
            yield e
            e = nxt[e]
            if e == first:
                return

    def succ(self, v):
        for e in self.out_edges(v):
            yield e, self.head(e)

    def pred(self, v):
        for e in self.in_edges(v):
            yield e, self.tail(e)

    def vertices(self):
        return [v for v in range(len(self.kind)) if self.v_alive[v]]

    def ordinary_vertices(self):
        return [v for v in range(len(self.kind))
                if self.v_alive[v] and self.kind[v] == ORDINARY]

    def edges(self):
        return [e for e in range(len(self.e_tail)) if self.e_alive[e]]

    def n_slots(self):
        return len(self.kind)

    def m_slots(self):
        return len(self.e_tail)

    # -- whole-graph operations --------------------------------------------

    def copy(self):
        g = Digraph()
        g.kind = self.kind[:]
        g.v_alive = self.v_alive[:]
        g.e_tail = self.e_tail[:]
        g.e_head = self.e_head[:]
        g.e_alive = self.e_alive[:]
        g.first_out = self.first_out[:]
        g.first_in = self.first_in[:]
        g.nxt_out = self.nxt_out[:]
        g.prv_out = self.prv_out[:]
        g.nxt_in = self.nxt_in[:]
        g.prv_in = self.prv_in[:]
        g.out_deg = self.out_deg[:]
        g.in_deg = self.in_deg[:]
        g.n_live = self.n_live
        g.m_live = self.m_live
        g.contracted = self.contracted
        # equal arrays: the snapshots stay valid until either graph changes
        g._version = self._version
        g._adj_cache = dict(self._adj_cache)
        return g

    def reversed(self):
        """A new graph with every edge flipped; k-out/k-in vertex kinds swap."""
        swap = {AUX_KOUT: AUX_KIN, AUX_KIN: AUX_KOUT}
        e_head = self.e_head
        tails = []
        heads = []
        for v in self.vertices():
            ring = [e_head[e] for e in self.out_edges(v)]
            tails += ring
            heads += [v] * len(ring)
        return _build([swap.get(x, x) for x in self.kind], self.v_alive[:],
                      tails, heads)

    def contract_lazy(self, members, rep, kind=AUX_KOUT):
        """Contract a vertex set in place: endpoint rewrite plus ring surgery.

        Runs in O(vol(members)).  rep must belong to members; it survives,
        relabelled with the given kind, and owns the merged rings, whose
        edges name it as their tail or head.
        """
        memb = set(members)
        if rep not in memb:
            raise GraphError("representative must be a member")
        for u in memb:
            if not self.is_live(u):
                raise GraphError(f"vertex {u} is not live")
        self.contracted = True
        self._version += 1
        internal = []
        for u in memb:
            for e in self.out_edges(u):
                if self.head(e) in memb:
                    internal.append(e)
        for e in internal:
            self.delete_edge(e)
        for u in memb:
            if u != rep:
                for e in self.out_edges(u):
                    self.e_tail[e] = rep
                for e in self.in_edges(u):
                    self.e_head[e] = rep
                self.merge_in_rings(u, rep)
                self.merge_out_rings(u, rep)
                self.v_alive[u] = False
                self.n_live -= 1
        self.kind[rep] = kind
        return rep

    # -- adjacency snapshot for hot traversals -----------------------------

    def adjacency(self, backward=False):
        """Per-vertex flat lists [e0, head0, e1, head1, ...] in ring order,
        with tails in place of heads when backward.

        Flat lists rather than (edge, head) tuples keep the snapshot as small
        as offset arrays would.  Each direction is built on first use and
        cached until the next mutation.
        """
        cached = self._adj_cache.get(backward)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        ring, end = ((self.in_edges, self.e_tail) if backward
                     else (self.out_edges, self.e_head))
        adj = [[x for e in ring(v) for x in (e, end[e])]
               if self.v_alive[v] else [] for v in range(len(self.kind))]
        self._adj_cache[backward] = (self._version, adj)
        return adj


class ReversalOverlay:
    """Journaled per-edge direction flips over a frozen graph.

    Traversal through the overlay sees edge (x, y) as (y, x) when flipped.
    The base graph is never touched; rewind restores the overlay to an
    earlier journal mark exactly.  Flows find augmenting paths with the
    two-sided search augmenting_path and read residual reach with bfs; local
    searches walk the overlay with bounded_bfs.  path_into serves flows into
    a set of sinks marked in a bytearray.
    """

    def __init__(self, g):
        self.g = g
        self.flip = bytearray(len(g.e_tail))
        self.journal = []
        self.dirty = {}

    def mark(self):
        return len(self.journal)

    def _toggle(self, e):
        f = self.flip[e] ^ 1
        self.flip[e] = f
        d = 1 if f else -1
        dirty = self.dirty
        # count flipped edges per endpoint; succ and pred check the flips
        # only at vertices with a nonzero count
        for v in (self.g.tail(e), self.g.head(e)):
            c = dirty.get(v, 0) + d
            if c:
                dirty[v] = c
            else:
                del dirty[v]

    def tail(self, e):
        if self.flip[e]:
            return self.g.head(e)
        return self.g.tail(e)

    def head(self, e):
        if self.flip[e]:
            return self.g.tail(e)
        return self.g.head(e)

    def reverse_path(self, path):
        """Flip every edge of a directed walk (contiguous, edge-distinct)."""
        if len(set(path)) != len(path):
            raise GraphError("path repeats an edge")
        cur = None
        for e in path:
            if not self.g.e_alive[e]:
                raise GraphError(f"edge {e} is not live")
            if cur is not None and self.tail(e) != cur:
                raise GraphError("edges do not form a contiguous walk")
            cur = self.head(e)
        self.reverse_trusted(path)

    def reverse_trusted(self, path):
        """reverse_path without its checks, for walks the traversal kernels
        built on this overlay themselves."""
        for e in path:
            self._toggle(e)
        self.journal.extend(path)

    def rewind(self, mark):
        journal = self.journal
        while len(journal) > mark:
            self._toggle(journal.pop())

    def succ(self, v):
        g = self.g
        if v not in self.dirty:
            yield from g.succ(v)
            return
        flip = self.flip
        for e in g.out_edges(v):
            if not flip[e]:
                yield e, g.head(e)
        for e in g.in_edges(v):
            if flip[e]:
                yield e, g.tail(e)

    def pred(self, v):
        g = self.g
        if v not in self.dirty:
            yield from g.pred(v)
            return
        flip = self.flip
        for e in g.in_edges(v):
            if not flip[e]:
                yield e, g.tail(e)
        for e in g.out_edges(v):
            if flip[e]:
                yield e, g.head(e)

    # -- traversal ---------------------------------------------------------
    #
    # Vertices without a flipped edge are walked through the adjacency
    # snapshot; the rest, and every vertex of a graph contracted in place,
    # through succ/pred.  Both visit edges in ring order.  Such a graph is
    # the evolving one of a decomposition phase, and a snapshot rebuilt
    # after each of its contractions would cost O(m) per class.

    def _snapshot(self, backward=False):
        g = self.g
        return None if g.contracted else g.adjacency(backward)

    def bfs(self, src, backward=False):
        """Vertices reachable from src over successors, or predecessors when
        backward, in breadth-first discovery order."""
        visited = bytearray(len(self.g.kind))
        visited[src] = 1
        queue = [src]
        dirty = self.dirty
        step = self.pred if backward else self.succ
        snap = self._snapshot(backward)
        for x in queue:
            if snap is not None and x not in dirty:
                flat = iter(snap[x])
                adj = zip(flat, flat)  # consecutive (edge, end) pairs
            else:
                adj = step(x)
            for _e, y in adj:
                if not visited[y]:
                    visited[y] = 1
                    queue.append(y)
        return queue

    def augmenting_path(self, src, dst):
        """Edges of a path from src to dst (src != dst) in walk order, or
        None when dst is unreachable.

        A forward search from src and a backward one from dst expand one
        vertex each in turn and stop as soon as they meet, or as soon as
        either runs out.  A vertex is seen by at most one side, so the two
        tree paths and the meeting edge form a simple path.
        """
        n = len(self.g.kind)
        fseen = bytearray(n)
        bseen = bytearray(n)
        fseen[src] = 1
        bseen[dst] = 1
        tree = [-1] * n  # edge each vertex was seen by, toward its side's root
        fq = [src]
        bq = [dst]
        dirty = self.dirty
        fsnap = self._snapshot()
        bsnap = self._snapshot(True)
        # zip draws the next vertex of each growing queue per turn and ends
        # when either queue has none left
        for x, y in zip(fq, bq):
            if fsnap is not None and x not in dirty:
                flat = iter(fsnap[x])
                adj = zip(flat, flat)
            else:
                adj = self.succ(x)
            for e, z in adj:
                if fseen[z]:
                    continue
                if bseen[z]:
                    return self._join(tree, src, x, e, z, dst)
                fseen[z] = 1
                tree[z] = e
                fq.append(z)
            if bsnap is not None and y not in dirty:
                flat = iter(bsnap[y])
                adj = zip(flat, flat)
            else:
                adj = self.pred(y)
            for e, z in adj:
                if bseen[z]:
                    continue
                if fseen[z]:
                    return self._join(tree, src, z, e, y, dst)
                bseen[z] = 1
                tree[z] = e
                bq.append(z)
        return None

    def path_into(self, src, marked):
        """Forward breadth-first search from an unmarked src that stops at
        the first vertex marked in the bytearray marked and never expands
        one.

        Returns (path, None), with the edges of the path from src to that
        vertex in walk order, or (None, reach) when no marked vertex is
        reachable, with the vertices reached in discovery order.  Only the
        vertices seen are recorded, so a search that ends near src costs
        the edges around it.
        """
        tree = {src: -1}  # edge each seen vertex was reached by
        queue = [src]
        dirty = self.dirty
        snap = self._snapshot()
        for x in queue:
            if snap is not None and x not in dirty:
                flat = iter(snap[x])
                adj = zip(flat, flat)
            else:
                adj = self.succ(x)
            for e, y in adj:
                if y in tree:
                    continue
                tree[y] = e
                if marked[y]:
                    return self.tree_path(tree, src, y), None
                queue.append(y)
        return None, queue

    def bounded_bfs(self, src, target, limit, scanned=None):
        """Forward breadth-first search from src that scans at most limit
        edges and stops when an edge into target is scanned.

        Returns (queue, tree, hit, count): the vertices in discovery order,
        the edge each discovered vertex was reached by (-1 for src and
        undiscovered vertices), whether target was hit, and the number of
        edges scanned; the ids of scanned edges are appended to scanned if
        given.  Adjacency is read lazily, so no edge past the limit is
        touched.
        """
        n = len(self.g.kind)
        visited = bytearray(n)
        visited[src] = 1
        tree = [-1] * n
        queue = [src]
        left = limit
        dirty = self.dirty
        snap = self._snapshot()
        for x in queue:
            if not left:
                break
            if snap is not None and x not in dirty:
                flat = iter(snap[x])
                adj = zip(flat, flat)
            else:
                adj = self.succ(x)
            for e, y in islice(adj, left):
                left -= 1
                if scanned is not None:
                    scanned.append(e)
                if y == target:
                    tree[y] = e
                    return queue, tree, True, limit - left
                if not visited[y]:
                    visited[y] = 1
                    tree[y] = e
                    queue.append(y)
        return queue, tree, False, limit - left

    def tree_path(self, tree, src, dst):
        """Edges of the path from src to dst in the tree of a forward
        search, in walk order."""
        path = []
        while dst != src:
            e = tree[dst]
            path.append(e)
            dst = self.tail(e)
        path.reverse()
        return path

    def _join(self, tree, src, x, e, y, dst):
        """The path src ~> x -> y ~> dst of augmenting_path, where the
        forward tree reaches x, e runs from x to y and the backward tree
        leads from y."""
        path = self.tree_path(tree, src, x)
        path.append(e)
        while y != dst:
            e = tree[y]
            path.append(e)
            y = self.head(e)
        return path


def _build(kinds, alive, tails, heads):
    """Plain graph with the given vertex kinds and liveness and an edge
    tails[i] -> heads[i] of id i for every i, identical to the one that
    add_vertex per vertex, a v_alive reset per dead vertex and add_edge per
    edge in id order would build.

    add_edge's checks run over the whole lists at once; when one fails, the
    build is replayed edge by edge so that add_edge raises its own error for
    the first bad edge.
    """
    n = len(kinds)
    if tails and not (
            min(tails) >= 0 and min(heads) >= 0
            and max(tails) < n and max(heads) < n
            and (all(alive) or all(map(alive.__getitem__, tails))
                 and all(map(alive.__getitem__, heads)))
            and not any(map(eq, tails, heads))
            and len(tails) <= MAX_EDGES):
        g = Digraph()
        for v, kind in enumerate(kinds):
            g.add_vertex(kind)
            g.v_alive[v] = alive[v]
        for t, h in zip(tails, heads):
            g.add_edge(t, h)
    g = Digraph()
    g.kind = kinds
    g.v_alive = alive
    g.e_tail = tails
    g.e_head = heads
    g.e_alive = [True] * len(tails)
    g.first_out, g.nxt_out, g.prv_out, g.out_deg = _rings(n, tails)
    g.first_in, g.nxt_in, g.prv_in, g.in_deg = _rings(n, heads)
    g.n_live = sum(alive)
    g.m_live = len(tails)
    return g


def _rings(n, owners):
    """(first, nxt, prv, deg) of the rings that appending edges 0, 1, ...
    to the rings of their owners one at a time would build."""
    first = [-1] * n
    last = [-1] * n
    nxt = [-1] * len(owners)
    prv = nxt[:]
    for e, v in enumerate(owners):
        p = last[v]
        if p < 0:
            first[v] = e
        else:
            nxt[p] = e
            prv[e] = p
        last[v] = e
    for f, p in zip(first, last):
        if f >= 0:
            nxt[p] = f
            prv[f] = p
    count = Counter(owners)
    return first, nxt, prv, [count[v] for v in range(n)]


def from_arcs(n, arcs, ordinary=None):
    """Graph on vertices 0..n-1 with an edge of multiplicity mult for every
    (u, v, mult) arc; when ordinary is given, only those vertices are
    ordinary."""
    kinds = [ORDINARY] * n
    alive = [True] * n
    tails = []
    heads = []
    for u, v, mult in arcs:
        if mult < 1 or len(tails) + mult > MAX_EDGES:
            # raises add_edge's error for this arc, or for an earlier one
            _build(kinds, alive, tails, heads).add_edge(u, v, copies=mult)
        tails += [u] * mult
        heads += [v] * mult
    g = _build(kinds, alive, tails, heads)
    if ordinary is not None:
        g.set_ordinary(ordinary)
    return g


# -- set measures -----------------------------------------------------------

def out_and_vol(g, members, overlay=None):
    memb = members if isinstance(members, (set, frozenset)) else set(members)
    out = 0
    vol = 0
    src = overlay.succ if overlay is not None else g.succ
    for u in memb:
        for _e, y in src(u):
            vol += 1
            if y not in memb:
                out += 1
    return out, vol


def out_of(g, members, overlay=None):
    return out_and_vol(g, members, overlay)[0]


def vol_of(g, members, overlay=None):
    return out_and_vol(g, members, overlay)[1]


# -- contraction ------------------------------------------------------------

def contract(g, members, kind=None):
    """Eagerly contract a vertex set into one new vertex of the given kind.

    Returns (new graph, contracted vertex).  Vertex ids of survivors are
    preserved, so partitions computed on the result pull back by identity.
    """
    memb = set(members)
    if not memb:
        raise GraphError("cannot contract an empty set")
    live = g.vertices()
    for u in memb:
        if not g.is_live(u):
            raise GraphError(f"vertex {u} is not live")
    if len(memb) == len(live):
        raise GraphError("cannot contract the whole vertex set")
    if kind is None:
        kind = AUX_KOUT if out_of(g, memb) >= 1 else AUX_OTHER
    v_s = len(g.kind)
    alive = [a and v not in memb for v, a in enumerate(g.v_alive)]
    tails = []
    heads = []
    for v in live:
        for e in g.out_edges(v):
            t, hd = g.ends(e)
            t2 = v_s if t in memb else t
            h2 = v_s if hd in memb else hd
            if t2 != h2:
                tails.append(t2)
                heads.append(h2)
    return _build(g.kind + [kind], alive + [True], tails, heads), v_s


@dataclass
class ReducedComplement:
    """Standalone graph for a k-out set with the complement contracted."""
    graph: Digraph
    vmap: dict
    vbar: int


def contract_complement_reduced(g, members, k):
    """Build the side graph of a k-out set, contracting everything else.

    The complement becomes a single k-in vertex receiving the k cut edges;
    for each member with r entering edges from outside, min(k, r) parallel
    edges from the contracted vertex are kept.  Touches O(vol) edges.
    """
    memb = set(members)
    order = sorted(memb)
    vmap = {u: i for i, u in enumerate(order)}
    vbar = len(order)
    tails = []
    heads = []
    for u in order:
        ring = [vmap.get(g.head(e), vbar) for e in g.out_edges(u)]
        tails += [vmap[u]] * len(ring)
        heads += ring
    out = heads.count(vbar)  # the edges leaving the set
    if out != k:
        raise GraphError(f"expected a {k}-out set, found out={out}")
    for u in order:
        rho = 0
        for e in g.in_edges(u):
            if g.tail(e) not in memb:
                rho += 1
                if rho == k:
                    break
        tails += [vbar] * rho
        heads += [vmap[u]] * rho
    kinds = [g.kind[u] for u in order] + [AUX_KIN]
    h = _build(kinds, [True] * len(kinds), tails, heads)
    return ReducedComplement(h, vmap, vbar)


def materialize(g):
    """Compact plain copy of a (possibly lazily contracted) graph.

    Returns (graph, mapping) where mapping sends live ids of g to new ids.
    """
    verts = g.vertices()
    vmap = {v: i for i, v in enumerate(verts)}
    tails = []
    heads = []
    for v in verts:
        ring = [vmap[g.head(e)] for e in g.out_edges(v)]
        tails += [vmap[v]] * len(ring)
        heads += ring
    return _build([g.kind[v] for v in verts], [True] * len(verts), tails,
                  heads), vmap
