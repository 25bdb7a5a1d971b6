"""Vertex partitions: refinement algebra and the per-sample partition
constructions used to separate vertices across large minimal out-sets.

Every good partition comes from one recursion on one (v, s)-flow per query.
For a target connectivity t and a maximum flow of value lam < t: at
lam = t-1 the partition is the strongly connected components of the min-cut
DAG; below that, the latest min cut is contracted into z, the
(t-lam)-edge-connected components are taken with z's lam outgoing edges
removed, and each exit head x != s is merged into z and gets one flow capped
at t, whose value must exceed lam and, when it stays below t, drives the
same recursion.  lam rises on every level, so the depth is at most t-lam,
and the min-cut DAG and the latest min cut are the same for every maximum
flow, so no flow is run twice.
"""

from __future__ import annotations

from .digraph import AUX_KOUT, GraphError, contract


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

    @classmethod
    def singletons(cls, universe):
        return cls.from_key(universe, lambda v: v)

    @classmethod
    def one_block(cls, universe):
        return cls.from_key(universe, lambda v: 0)

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


def pull_back(partition, mapping, universe):
    """Partition of `universe` induced through a quotient map into the
    partitioned graph: each vertex takes the block of its image."""
    label = partition.label
    return Partition.from_key(universe, lambda v: label[mapping[v]])


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
        return tuple(res.cut.sorted())

    return Partition.from_key(universe, key)


# -- component partitions by repeated bounded flow ----------------------------

def ecc_naive(g, c):
    """Classes of mutual bounded connectivity >= c via pairwise flows.

    Stands in for the dedicated linear-time 2/3-edge-connected-component
    algorithms; quadratic in the worst case but correctness-equivalent, since
    mutual c-connectivity is an equivalence relation.
    """
    from .flow import lambda_bounded
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
            if (lambda_bounded(g, pivot, v, c) >= c
                    and lambda_bounded(g, v, pivot, c) >= c):
                block.append(v)
            else:
                rest.append(v)
        blocks.append(block)
        unassigned = rest
    return Partition.from_blocks(verts, blocks)


# -- good partitions ----------------------------------------------------------

def _good_partition(g, s, t, fs):
    """Good partition for target connectivity t from fs, a (v, s)-flow of
    value lam < t and hence a maximum one; the recursion of the module
    docstring.  A merged exit head whose flow does not exceed lam means the
    contracted cut was not the latest one."""
    from .flow import flow_state
    lam = fs.value
    if lam == t - 1:
        return fs.pq().partition()
    universe = tuple(sorted(g.vertices()))
    latest = fs.latest_side().members
    gz, z = contract(g, latest, kind=AUX_KOUT)
    to_gz = {u: (z if u in latest else u) for u in universe}
    cut_edges = list(gz.out_edges(z))
    stripped = gz.copy()
    for e in cut_edges:
        stripped.delete_edge(e)
    parts = [pull_back(ecc_naive(stripped, t - lam), to_gz, universe)]
    for e in cut_edges:
        x = gz.head(e)
        if x == s:
            continue
        gx, zx = contract(gz, {z, x}, kind=AUX_KOUT)
        fx = flow_state(gx, zx, s, t)
        if fx.value <= lam:
            raise GraphError("latest mincut violated: contracted connectivity "
                             f"{fx.value} not above {lam}")
        if fx.value < t:
            to_gx = {u: (zx if to_gz[u] in (z, x) else to_gz[u])
                     for u in universe}
            parts.append(pull_back(_good_partition(gx, s, t, fx), to_gx,
                                   universe))
    return refine_many(parts)


def good_partition_full(g, v, s, k):
    """Partition for a sampled vertex at connectivity exactly k+1.

    The strongly connected components of the min-cut DAG representation of
    the (v, s)-max-flow refine no (k+2)-connected pair, and separate every
    ordinary u with v inside its minimal (k+1)-out set from vertices outside.
    """
    from .flow import flow_state
    fs = flow_state(g, v, s, k + 2)
    if fs.value != k + 1:
        raise GraphError(f"expected lambda(v,s)=k+1={k + 1}, found {fs.value}")
    return _good_partition(g, s, k + 2, fs)


def good_partition_deficient(g, v, s, k):
    """Partition for a sampled vertex at connectivity exactly k.

    Contract the latest (v, s)-mincut into z; split on the 2-edge-connected
    components once z's k outgoing edges are removed, and on the full
    construction applied after merging z with each exit point that keeps
    connectivity k+1.
    """
    from .flow import flow_state
    fs = flow_state(g, v, s, k + 2)
    if fs.value != k:
        raise GraphError(f"expected lambda(v,s)=k={k}, found {fs.value}")
    return _good_partition(g, s, k + 2, fs)


def good_partition_low(g, v, s):
    """Partition for a sampled vertex at connectivity 1 or 2 when computing
    4-edge-connected components of a graph whose ordinary vertices are
    3-edge-connected."""
    from .flow import flow_state
    fs = flow_state(g, v, s, 4)
    if fs.value > 2:
        raise GraphError(f"expected lambda(v,s) <= 2, found >= {fs.value}")
    if fs.value < 1:
        raise GraphError(f"lambda({v},{s})=0: graph is not strongly connected")
    return _good_partition(g, s, 4, fs)


def good_k3_partition(g, v, s, k):
    """Partition for a sampled vertex when refining one (k+2)-connected
    component into (k+3)-connected ones; handles lambda(v, s) in
    {k, k+1, k+2}."""
    from .flow import flow_state
    fs = flow_state(g, v, s, k + 3)
    if fs.value > k + 2:
        raise GraphError(f"expected lambda(v,s) <= k+2, found >= {fs.value}")
    if fs.value < k:
        raise GraphError(f"lambda(v,s)={fs.value} below k={k}")
    return _good_partition(g, s, k + 3, fs)
