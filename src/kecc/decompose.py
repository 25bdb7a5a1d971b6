"""Decomposition of a k-edge-connected digraph into pieces whose ordinary
vertices are (k+1)-edge-connected, preserving (k+2)-edge-connectivity.

Vertices are first grouped into classes by their minimal k-out set around a
fixed root, with flows, in ascending order.  Each flow runs into the root
and every vertex already found at lambda >= k to it, so on a ring of k-out
sets it stops at the nearest block already read.  Below k its value is the
lambda to the root, by the lemma in the flow module at cap k; at k its
residual reach is the minimal side; a flow that reaches k+1 stands when the
path ends it recorded are all at lambda >= k+1 (the lemma at cap k+1) and
is run again into those alone otherwise.  proper_order gives the argument.
Right after such a flow finds a side, the side's later vertices are
classified by flows into the side's complement, so those flows cost the
volume of the side rather than the distance to the root, and nothing waits
to be read later.  Classes are processed in an order consistent with set
containment: each set is located again in the phase's graph by local
search, with volume budgets doubling from the volume of the class itself,
and contracted away, once eagerly into a standalone piece, once lazily in
that graph itself.  A second phase repeats the construction on the reverse
of every piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .digraph import (ORDINARY, ConnectivityError, Digraph, GraphError,
                      contract_complement_reduced, materialize, vol_of)
from .flow import flow_state
# not called here; perfbench's tracer wraps both names in this module
from .flow import lambda_bounded, minimal_mincut_side
from .local_search import local_search_mset, randomized_local_search_mset
from .validation import check_delta, check_k, check_mode


class DecompositionError(RuntimeError):
    """A local search missed a set it should have found; the decomposition
    would be wrong, so the run is aborted instead."""


def proper_order(g, s, k):
    """The classes of vertices sharing one minimal k-out set avoiding s, as
    a list of (members ascending, the set as a frozenset), a class with a
    strictly smaller set first; vertices at lambda(v, s) > k are in none.

    Sets are found by a max-flow capped at k+1 per vertex, read twice: its
    value is min(lambda(v, s), k+1) and, at lambda = k, the residual reach
    of v is the set.  Vertices are taken in ascending order.  Two
    bytearrays mark what is proven so far: sinks marks s and the vertices
    found at lambda(u, s) >= k+1, proven marks s and every vertex found at
    lambda(u, s) >= k, those classified inside a side included.  Each flow
    on g runs into proven, so on a ring of k-out sets it stops at the
    nearest block already read instead of crossing the ring to s.  Its
    value x is read in three cases, each exact:

    - x < k: by the lemma in the flow module at cap k, x = lambda(u, s).
    - x = k: by the same lemma lambda(u, s) >= k, and the residual reach R
      of u avoids every mark with d+(R) = k, so lambda(u, s) = k.  The
      minimal (u, s)-side M has d+(M & R) + d+(M | R) <= 2k by
      submodularity, so d+(M & R) = k and, M being minimal, M lies inside
      R and avoids every mark; R is the minimal side of the flow into
      proven and M is one of its value, so R = M, the set.
    - x = k+1: lambda(u, s) >= k.  If every path end the flow recorded
      is marked in sinks, the paths are a flow into sinks, and the lemma
      at cap k+1 gives lambda(u, s) >= k+1; otherwise the flow into sinks
      alone is run and read in place of it.

    When a flow returns a side S of more than one vertex, S's later
    unclassified vertices are classified next, in ascending order, by flows
    on g into a bytearray marking every slot outside S, at a cost that
    follows vol(S) instead of the distance to the root.  That is exact:
    any (u, s)-cut T meets S in a cut with d+(T & S) <= d+(T), since
    d+(T | S) >= lambda(v, s) = k = d+(S) by submodularity, and the cuts
    inside S are those that separate u from the marks, with the same
    out-degree.  So the value is min(lambda(u, s), k+1), and below it the
    residual reach of u meets no mark and is u's unique minimal side;
    since d+(S) = k, the value never reaches the cap.  A value below k
    raises GraphError once every smaller vertex is read, so the error names
    the smallest vertex below k, as flows on g to s alone in ascending
    order would.  Equal cardinality rules out strict containment, so
    ordering by (size, smallest member) is always a valid proper order;
    equal keys keep the order of their classes' smallest members.
    """
    by_set = {}
    low = None  # (vertex, value): the smallest vertex read below k
    sinks = bytearray(g.n_slots())
    sinks[s] = 1
    proven = sinks[:]
    for v in g.ordinary_vertices():
        if low is not None and low[0] <= v:
            break
        if proven[v]:
            continue
        work = [(v, proven)]  # then one side's later vertices, smallest last
        while work:
            u, marks = work.pop()
            fs = flow_state(g, u, s, k + 1, marks)
            if fs.value > k and marks is proven:
                if not all(map(sinks.__getitem__, fs.ends)):
                    fs = flow_state(g, u, s, k + 1, sinks)
                else:
                    sinks[u] = 1
            if fs.value < k and (low is None or u < low[0]):
                low = (u, fs.value)
            if fs.value != k:
                continue
            side = fs.minimal_side()
            by_set.setdefault(side, []).append(u)
            proven[u] = 1
            if marks is proven and len(side) > 1:
                complement = bytearray(b"\x01") * g.n_slots()
                for x in side:
                    complement[x] = 0
                work += [(x, complement) for x in sorted(side, reverse=True)
                         if x > u and g.kind[x] == ORDINARY
                         and not proven[x]]
    if low is not None:
        raise ConnectivityError(k, low[1], (low[0], s))
    classes = [(members, key) for key, members in by_set.items()]
    classes.sort(key=lambda mc: (len(mc[1]), min(mc[1]), mc[0][0]))
    return classes


@dataclass
class DecompPiece:
    """One output graph: its vertices, which of them are ordinary, and where
    they came from."""

    graph: Digraph
    # per-vertex original id: a contracted set carries its representative's,
    # a contracted complement None
    orig: list
    ordinary: list = field(default_factory=list)  # original ids
    provenance: tuple = (0, 0)

    def __post_init__(self):
        if not self.ordinary:
            self.ordinary = [o for v, o in enumerate(self.orig)
                             if o is not None
                             and self.graph.kind[v] == ORDINARY]

    def local_of(self):
        return {o: v for v, o in enumerate(self.orig) if o is not None}


def _find_min_out_set(gev, members, s, k, m0, mode, reps, rng):
    """Locate the minimal k-out set of a class avoiding s in the evolving
    graph, with doubling volume budgets; raise if it is missed or found too
    late.

    The set holds the class's members, which no earlier contraction touched,
    so its volume is at least theirs and every smaller budget would fail:
    the doubling starts at the largest power of two <= vol(members).
    """
    v = members[0]
    delta = 1 << (max(1, vol_of(gev, members)).bit_length() - 1)
    while True:
        if mode == "det":
            found = local_search_mset(gev, v, s, k, delta).members
        else:
            found = None
            for _ in range(reps):
                res = randomized_local_search_mset(gev, v, s, k, delta, rng)
                if res.found:
                    found = res.members
                    break
        if found is not None:
            vol = vol_of(gev, found)
            if delta >= 2 * vol:
                raise DecompositionError(
                    f"set of volume {vol} only surfaced at budget {delta}")
            return found
        if delta >= 2 * m0:
            raise DecompositionError(
                f"no {k}-out set for vertex {v} at any budget up to {delta}")
        delta *= 2


def _pull(orig, vmap, h):
    """Original ids of h's vertices, where vmap sends the vertices of a graph
    with original ids orig into h; vertices of h outside vmap get None."""
    pulled = [None] * h.n_slots()
    for old, new in vmap.items():
        pulled[new] = orig[old]
    return pulled


def _phase(g, orig, s, k, m0, mode, reps, rng, materialized=False):
    """One phase: process classes in proper order on g, whose vertices have
    original ids orig, contracting each found set in g itself; the phase
    consumes g.

    Returns [(graph, orig, start)]: the side graph of each class, started at
    its contracted complement, then the materialized remainder, started at s.
    When g is materialize's own output and no class is found, the remainder
    is g itself, since materializing it again would build the same arrays.
    Raises DecompositionError when a found set's ordinary vertices are not
    exactly its class.
    """
    classes = proper_order(g, s, k)
    if materialized and not classes:
        return [(g, list(orig), s)]
    out = []
    for members, _cut in classes:
        found = _find_min_out_set(g, members, s, k, m0, mode, reps, rng)
        if {u for u in found if g.kind[u] == ORDINARY} != set(members):
            raise DecompositionError(
                f"set found for vertex {members[0]} is not its class")
        side, smap = contract_complement_reduced(g, found, k)
        out.append((side, _pull(orig, smap, side), len(smap)))
        g.contract_lazy(found, min(found))
    remainder, rmap = materialize(g)
    out.append((remainder, _pull(orig, rmap, remainder), rmap[s]))
    return out


def decompose_kecc(g, k, delta, mode="det", rng=None, s=None):
    """Split a k-edge-connected digraph into pieces whose ordinary vertices
    are exactly the (k+1)-edge-connected components.

    mode "det" uses the deterministic local search; "rand" repeats the
    randomized one ceil(log2(2n/delta)) times per budget probe.  A missed
    set aborts with DecompositionError rather than returning a wrong answer.
    The first phase runs on g from s (default: the smallest live vertex),
    the second on the reverse of each of its outputs.  A ConnectivityError
    names g's ids: from the first phase (v, s), v the smallest vertex at
    lambda(v, s) < k; from the second (s, v), some v at lambda(s, v) < k.
    """
    check_k(k)
    check_mode(mode, rng, ("det", "rand"))
    check_delta(delta)
    live = g.vertices()
    if not live:
        raise GraphError("graph has no live vertex")
    if s is None:
        s = min(live)
    elif not g.is_live(s):
        raise GraphError(f"start vertex {s} is not live")
    m0 = max(1, g.m_live)
    reps = max(1, math.ceil(math.log2(2 * len(live) / delta)))

    base, base_map = materialize(g)
    try:
        phase1 = _phase(base, live, base_map[s], k, m0, mode, reps, rng,
                        materialized=True)
    except ConnectivityError as exc:  # base's ids index live, ascending
        raise exc.naming(live.__getitem__) from None
    pieces = []
    for idx, (h, orig, start) in enumerate(phase1):
        # nothing reads h again, so phase 2 contracts its reverse view
        try:
            phase2 = _phase(h.reversed(), orig, start, k, max(1, h.m_live),
                            mode, reps, rng)
        except ConnectivityError as exc:
            # a (start, u)-cut of h below k, its contracted sets expanded, is
            # a set of g avoiding s with the same in-degree: contraction keeps
            # edges, and contract_complement_reduced's min(k, r) caps bind at k
            v = orig[exc.pair[0]]
            raise ConnectivityError(k, flow_state(g, s, v, k).value,
                                    (s, v)) from None
        for jdx, (hh, sub_orig, _start) in enumerate(phase2):
            piece = DecompPiece(hh.reversed(), sub_orig, provenance=(idx, jdx))
            if piece.ordinary:
                pieces.append(piece)
    return pieces


@dataclass
class DecompReport:
    ok: bool
    failures: list = field(default_factory=list)
    total_vertices: int = 0
    total_edges: int = 0

    def fail(self, bullet, detail):
        self.ok = False
        self.failures.append(f"{bullet}: {detail}")


def verify_decomposition(g, pieces, k):
    """Check every contract of the decomposition against the oracle:
    connectivity of each piece, (k+1)-connectivity of its ordinary vertices,
    unique ordinary placement, (k+2)-connectivity preservation, and the
    empirical size gates sum(V) <= 5n and sum(E) <= 4(m + kn)."""
    from . import oracle
    report = DecompReport(True)
    n = g.n_live
    m = g.m_live
    report.total_vertices = sum(p.graph.n_live for p in pieces)
    report.total_edges = sum(p.graph.m_live for p in pieces)
    if report.total_vertices > 5 * n:
        report.fail("size", f"{report.total_vertices} vertices > 5n = {5 * n}")
    if report.total_edges > 4 * (m + k * n):
        report.fail("size", f"{report.total_edges} edges > 4(m+kn)")

    placed = {}
    for i, p in enumerate(pieces):
        for o in p.ordinary:
            placed.setdefault(o, []).append(i)
    for v in g.vertices():
        spots = placed.get(v, [])
        if len(spots) != 1:
            report.fail("unique-ordinary", f"vertex {v} ordinary in {spots}")

    for i, p in enumerate(pieces):
        h = p.graph
        verts = h.vertices()
        for u in verts:
            for v in verts:
                if u != v and oracle.lambda_oracle(h, u, v, k) < k:
                    report.fail("piece-connectivity",
                                f"piece {i} is not {k}-edge-connected")
                    break
            else:
                continue
            break
        local = p.local_of()
        missing = [o for o in p.ordinary if o not in local]
        for o in missing:
            report.fail("ordinary-membership",
                        f"piece {i} claims ordinary vertex {o} it lacks")
        present = [o for o in p.ordinary if o in local]
        ords = [local[o] for o in present]
        for a in range(len(ords)):
            for b in range(a + 1, len(ords)):
                if not oracle.mutually_connected(h, ords[a], ords[b], k + 1):
                    report.fail("ordinary-connectivity",
                                f"piece {i}: ordinary pair "
                                f"({present[a]},{present[b]}) "
                                f"not {k + 1}-edge-connected")

    verts = sorted(g.vertices())
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            u, v = verts[a], verts[b]
            whole = oracle.mutually_connected(g, u, v, k + 2)
            inside = False
            spot_u = placed.get(u, [])
            spot_v = placed.get(v, [])
            if spot_u and spot_v and spot_u[0] == spot_v[0]:
                p = pieces[spot_u[0]]
                local = p.local_of()
                if u in local and v in local:
                    inside = oracle.mutually_connected(p.graph, local[u],
                                                       local[v], k + 2)
            if whole != inside:
                report.fail("k2-preservation",
                            f"pair ({u},{v}): connected in G={whole}, "
                            f"in pieces={inside}")
    return report
