"""Directed multigraph with per-vertex edge lists, edge-reversal overlays
and contraction.

Every vertex keeps the ids of its outgoing edges in out[v] and of its
entering edges in inn[v], in insertion order; every traversal reads them in
that order.  A vertex is ORDINARY or AUXILIARY; auxiliary vertices stand for
contracted sets.  There is one contraction, contract_lazy, which works in
place: it drops the set's internal edges, rewrites the endpoints of the
merged vertices' edges to the representative and appends their lists to its
lists, in time linear in the set's volume.  contract applies it to a copy.

Whole-graph copies (materialize, contract_complement_reduced, from_arcs)
each build two edge lists and hand them to one bulk builder, _build.  The
first two take their lists from one renumbering pass, _renumbered, and
return (graph, mapping), mapping sending the old ids to the new.  _build's
result is identical to the graph that sequential add_vertex and add_edge
calls would build: the same edge ids, the same list order, the same arrays
and counters; only from_arcs, whose arcs come from outside, checks them.
reversed copies nothing: it is a view that shares its graph's arrays.
"""

from __future__ import annotations

from itertools import chain, islice

ORDINARY = 0
AUXILIARY = 1

# Multiplicities are expanded to parallel edges, so cap the expanded size.
MAX_EDGES = 10_000_000


class GraphError(ValueError):
    pass


class ConnectivityError(GraphError):
    """lambda(u, v) = value below the k a caller requires, for the vertex
    pair (u, v)."""

    def __init__(self, k, value, pair):
        u, v = pair
        super().__init__(f"graph is not {k}-edge-connected: "
                         f"lambda({u},{v})={value}")
        self.k, self.value, self.pair = k, value, pair

    def naming(self, ids):
        """The same error with each vertex x named ids(x)."""
        u, v = self.pair
        return ConnectivityError(self.k, self.value, (ids(u), ids(v)))


class Digraph:
    def __init__(self):
        self.kind = []
        self.v_alive = []
        self.e_tail = []
        self.e_head = []
        self.e_alive = []
        # per-vertex ids of the live outgoing and entering edges, in order
        self.out = []
        self.inn = []
        self.n_live = 0
        self.m_live = 0

    # degree views for callers that index them, such as perfbench's workloads
    out_deg = property(lambda self: _Lengths(self.out))
    in_deg = property(lambda self: _Lengths(self.inn))

    # -- construction ------------------------------------------------------

    def add_vertex(self, kind=ORDINARY):
        v = len(self.kind)
        self.kind.append(kind)
        self.v_alive.append(True)
        self.out.append([])
        self.inn.append([])
        self.n_live += 1
        return v

    def add_vertices(self, count, kind=ORDINARY):
        return [self.add_vertex(kind) for _ in range(count)]

    def set_ordinary(self, members):
        """Make exactly the given vertices ordinary; every other live vertex
        becomes auxiliary."""
        marked = set(members)
        for v in self.vertices():
            self.kind[v] = ORDINARY if v in marked else AUXILIARY

    def add_edge(self, tail, head, copies=1):
        if copies < 1:
            raise GraphError("copies must be >= 1")
        if not (self.is_live(tail) and self.is_live(head)):
            raise GraphError(f"dead endpoint in edge ({tail},{head})")
        if tail == head:
            raise GraphError(f"self-loop ({tail},{head}) rejected")
        if len(self.e_tail) + copies > MAX_EDGES:
            raise GraphError("expanded edge count exceeds limit")
        out = []
        for _ in range(copies):
            e = len(self.e_tail)
            self.e_tail.append(tail)
            self.e_head.append(head)
            self.e_alive.append(True)
            self.out[tail].append(e)
            self.inn[head].append(e)
            out.append(e)
        self.m_live += copies
        return out

    def delete_edge(self, e):
        """Remove a live edge from its ends' lists, in O(deg) of its ends."""
        if not (0 <= e < len(self.e_tail)) or not self.e_alive[e]:
            raise GraphError(f"edge {e} is not live")
        self.out[self.e_tail[e]].remove(e)
        self.inn[self.e_head[e]].remove(e)
        self.e_alive[e] = False
        self.m_live -= 1

    # -- queries -----------------------------------------------------------

    def is_live(self, v):
        return 0 <= v < len(self.kind) and self.v_alive[v]

    def tail(self, e):
        return self.e_tail[e]

    def head(self, e):
        return self.e_head[e]

    def ends(self, e):
        return self.tail(e), self.head(e)

    # out_edges and in_edges return the graph's own lists: read them only,
    # and copy one before changing the graph while walking it

    def out_edges(self, v):
        return self.out[v]

    def in_edges(self, v):
        return self.inn[v]

    def succ(self, v):
        ids = self.out[v]
        return zip(ids, map(self.e_head.__getitem__, ids))

    def pred(self, v):
        ids = self.inn[v]
        return zip(ids, map(self.e_tail.__getitem__, ids))

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

    def copy(self, shared=()):
        """A copy of the graph.  The vertices in shared keep this graph's
        edge lists themselves, for a caller that only rebinds them, as
        contract_lazy does with the lists of the set it contracts."""
        g = Digraph()
        g.kind = self.kind[:]
        g.v_alive = self.v_alive[:]
        g.e_tail = self.e_tail[:]
        g.e_head = self.e_head[:]
        g.e_alive = self.e_alive[:]
        g.out, g.inn = self.out[:], self.inn[:]
        for v in range(len(self.kind)):
            if v not in shared:
                g.out[v] = g.out[v][:]
                g.inn[v] = g.inn[v][:]
        g.n_live = self.n_live
        g.m_live = self.m_live
        return g

    def reversed(self):
        """The graph with every edge flipped, as an O(1) view: it shares
        every array with this graph, vertex kinds and edge ids included, with
        the roles of tails and heads and of out- and in-lists exchanged.

        Changing the view in place changes the graph's arrays but not its
        n_live and m_live: do it only when nothing reads the graph again,
        and copy() the view otherwise.  On a graph whose edge ids run in
        tail order with ascending edge lists, as every output of materialize
        and contract_complement_reduced, the view equals a rebuild of the
        reverse array for array.
        """
        r = Digraph()
        r.kind, r.v_alive, r.e_alive = self.kind, self.v_alive, self.e_alive
        r.e_tail, r.e_head = self.e_head, self.e_tail
        r.out, r.inn = self.inn, self.out
        r.n_live, r.m_live = self.n_live, self.m_live
        return r

    def contract_lazy(self, members, rep):
        """Contract a vertex set in place: drop its internal edges, then
        rewrite the other members' edges to rep and append their lists to
        rep's lists, one member after another in the order of set(members).

        Runs in O(vol(members)).  rep must belong to members; it survives as
        an auxiliary vertex, and its lists hold every edge that leaves or
        enters the set.  Edge ids do not change; the internal edges and the
        other members become dead slots.
        """
        memb = set(members)
        if rep not in memb:
            raise GraphError("representative must be a member")
        for u in memb:
            if not self.is_live(u):
                raise GraphError(f"vertex {u} is not live")
        out, inn = self.out, self.inn
        e_tail, e_head, e_alive = self.e_tail, self.e_head, self.e_alive
        others = [u for u in memb if u != rep]
        order = [rep] + others
        internal = [e for u in order for e in out[u] if e_head[e] in memb]
        for e in internal:
            e_alive[e] = False
        self.m_live -= len(internal)
        leaving = [e for u in order for e in out[u] if e_alive[e]]
        entering = [e for u in order for e in inn[u] if e_alive[e]]
        for e in leaving:
            e_tail[e] = rep
        for e in entering:
            e_head[e] = rep
        out[rep], inn[rep] = leaving, entering
        for u in others:
            out[u] = []
            inn[u] = []
            self.v_alive[u] = False
        self.n_live -= len(others)
        self.kind[rep] = AUXILIARY
        return rep


class _Lengths:
    """Read-only view v -> len(lists[v])."""

    __slots__ = ("lists",)

    def __init__(self, lists):
        self.lists = lists

    def __getitem__(self, v):
        return len(self.lists[v])


class ReversalOverlay:
    """Per-edge direction flips over a frozen graph.

    Traversal through the overlay sees edge (x, y) as (y, x) when flipped.
    The base graph is never touched; reversing a walk a second time
    restores the overlay exactly.  succ and pred walk a vertex's edge lists
    directly while it has no flipped edge, and skip or turn its flipped
    edges otherwise.  Flows search for paths into marked vertices with
    path_into and read backward reach with bfs; local searches walk the
    overlay with bounded_bfs.  Both record a dict tree for tree_path, so
    they cost what they see; only the flip array costs the whole graph.
    """

    def __init__(self, g):
        self.g = g
        self.flip = bytearray(len(g.e_tail))
        self.dirty = {}

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
        g, flip, dirty = self.g, self.flip, self.dirty
        for e in path:
            f = flip[e] ^ 1
            flip[e] = f
            d = 1 if f else -1
            # count flipped edges per endpoint; succ and pred check the flips
            # only at vertices with a nonzero count
            for v in (g.e_tail[e], g.e_head[e]):
                c = dirty.get(v, 0) + d
                if c:
                    dirty[v] = c
                else:
                    del dirty[v]

    def succ(self, v):
        """(edge, head) pairs of v's edges as the overlay directs them: its
        unflipped out-edges, then its flipped in-edges."""
        g = self.g
        if v not in self.dirty:
            ids = g.out[v]
            return zip(ids, map(g.e_head.__getitem__, ids))
        flip = self.flip
        return chain(((e, g.e_head[e]) for e in g.out[v] if not flip[e]),
                     ((e, g.e_tail[e]) for e in g.inn[v] if flip[e]))

    def pred(self, v):
        """(edge, tail) pairs of the edges entering v as the overlay directs
        them: its unflipped in-edges, then its flipped out-edges."""
        g = self.g
        if v not in self.dirty:
            ids = g.inn[v]
            return zip(ids, map(g.e_tail.__getitem__, ids))
        flip = self.flip
        return chain(((e, g.e_tail[e]) for e in g.inn[v] if not flip[e]),
                     ((e, g.e_head[e]) for e in g.out[v] if flip[e]))

    # -- traversal ---------------------------------------------------------
    #
    # The kernels read adjacency only through succ and pred, lazily, so a
    # search that stops early never touches the rest of a vertex's lists.

    def bfs(self, sources, backward=False):
        """Vertices reachable from the distinct vertices of sources over
        successors, or predecessors when backward, in breadth-first
        discovery order."""
        visited = bytearray(len(self.g.kind))
        for x in sources:
            visited[x] = 1
        queue = list(sources)
        step = self.pred if backward else self.succ
        for x in queue:
            for _e, y in step(x):
                if not visited[y]:
                    visited[y] = 1
                    queue.append(y)
        return queue

    def path_into(self, src, marked):
        """(tree, end) of a forward breadth-first search from an unmarked
        src that stops at the first vertex marked in the bytearray marked,
        end, and never expands one; tree maps each vertex seen to the edge
        it was reached by (-1 for src).  When no marked vertex is
        reachable, end is None and tree holds the reach of src.
        """
        tree = {src: -1}
        queue = [src]
        for x in queue:
            for e, y in self.succ(x):
                if y in tree:
                    continue
                tree[y] = e
                if marked[y]:
                    return tree, y
                queue.append(y)
        return tree, None

    def bounded_bfs(self, src, target, limit, scanned=None):
        """Forward breadth-first search from src that scans at most limit
        edges and stops when an edge into target is scanned.

        Returns (queue, tree, hit, count): the vertices in discovery order,
        path_into's tree over them (and target, when hit), whether target
        was hit, and the number of edges scanned; the ids of scanned edges
        are appended to scanned if given.  Adjacency is read lazily, so no
        edge past the limit is touched.
        """
        tree = {src: -1}
        queue = [src]
        left = limit
        for x in queue:
            if not left:
                break
            for e, y in islice(self.succ(x), left):
                left -= 1
                if scanned is not None:
                    scanned.append(e)
                if y == target:
                    tree[y] = e
                    return queue, tree, True, limit - left
                if y not in tree:
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


def _build(kinds, tails, heads):
    """Plain graph with one live vertex of each of the given kinds and an
    edge tails[i] -> heads[i] of id i for every i, identical to the one that
    add_vertex per vertex and add_edge per edge in id order would build.
    Nothing is checked: the lists come from a live graph, or from from_arcs,
    which raises add_edge's error for the first bad arc.
    """
    n = len(kinds)
    g = Digraph()
    g.kind = kinds
    g.v_alive = [True] * n
    g.e_tail = tails
    g.e_head = heads
    g.e_alive = [True] * len(tails)
    g.out = _lists(n, tails)
    g.inn = _lists(n, heads)
    g.n_live = n
    g.m_live = len(tails)
    return g


def _lists(n, owners):
    """Per-vertex lists of the edge ids e with owners[e] == v, ascending."""
    lists = [[] for _ in range(n)]
    for e, v in enumerate(owners):
        lists[v].append(e)
    return lists


def from_arcs(n, arcs, ordinary=None):
    """Graph on vertices 0..n-1 with an edge of multiplicity mult for every
    (u, v, mult) arc; when ordinary is given, only those vertices are
    ordinary."""
    kinds = [ORDINARY] * n
    tails = []
    heads = []
    for u, v, mult in arcs:
        if (mult < 1 or len(tails) + mult > MAX_EDGES or u == v
                or not (0 <= u < n and 0 <= v < n)):
            # raises add_edge's error for this arc
            _build(kinds, tails, heads).add_edge(u, v, copies=mult)
        tails += [u] * mult
        heads += [v] * mult
    g = _build(kinds, tails, heads)
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

def contract(g, members):
    """Contract a vertex set of a copy of g into one new auxiliary vertex.

    Returns (copy, contracted vertex): the copy gets a new vertex z, and
    contract_lazy merges the set into it; the copy shares the set's edge
    lists with g until contract_lazy rebinds them, so only the survivors'
    lists are copied.  Survivors keep their ids, so partitions computed on
    the result pull back by identity.  The result keeps g's edge ids and
    dead slots too; materialize it before writing it to a file.
    """
    memb = set(members)
    if not memb:
        raise GraphError("cannot contract an empty set")
    for u in memb:
        if not g.is_live(u):
            raise GraphError(f"vertex {u} is not live")
    if len(memb) == g.n_live:
        raise GraphError("cannot contract the whole vertex set")
    h = g.copy(memb)
    z = h.add_vertex(AUXILIARY)
    memb.add(z)
    h.contract_lazy(memb, z)
    return h, z


def _renumbered(g, verts):
    """(tails, heads, vmap): vmap sends verts to 0, 1, ... in order, and
    edge i of tails and heads is the i-th out-edge of verts, in vertex then
    list order, renumbered by vmap; a head outside verts becomes
    len(verts)."""
    vmap = {v: i for i, v in enumerate(verts)}
    new_id = vmap.get
    outside = len(verts)
    tails = []
    heads = []
    for i, v in enumerate(verts):
        ends = [new_id(g.head(e), outside) for e in g.out_edges(v)]
        tails += [i] * len(ends)
        heads += ends
    return tails, heads, vmap


def contract_complement_reduced(g, members, k):
    """Build the side graph of a k-out set, contracting everything else.

    Returns (graph, mapping) as materialize does: mapping sends the members,
    ascending, to 0, 1, ..., and the complement becomes one auxiliary vertex,
    len(mapping), receiving the k cut edges; for each member with r entering
    edges from outside, min(k, r) parallel edges from the contracted vertex
    are kept.  Touches O(vol) edges.
    """
    memb = set(members)
    order = sorted(memb)
    tails, heads, vmap = _renumbered(g, order)
    vbar = len(order)
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
    kinds = [g.kind[u] for u in order] + [AUXILIARY]
    return _build(kinds, tails, heads), vmap


def materialize(g):
    """Compact plain copy of a (possibly lazily contracted) graph.

    Returns (graph, mapping) where mapping sends live ids of g to new ids.
    """
    verts = g.vertices()
    tails, heads, vmap = _renumbered(g, verts)
    return _build([g.kind[v] for v in verts], tails, heads), vmap
