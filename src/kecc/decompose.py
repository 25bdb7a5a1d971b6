"""Decomposition of a k-edge-connected digraph into pieces whose ordinary
vertices are (k+1)-edge-connected, preserving (k+2)-edge-connectivity.

Vertices are first grouped into classes by their minimal k-out set around a
fixed root, with flows; a vertex inside a side already found is classified
on that side's graph, so the flows cost the volume of the sets rather than
the distance to the root.  A flow on the whole graph ends at the root or at
any vertex already found (k+1)-connected to it: by the lemma in the flow
module, cuts of value at most k avoid such vertices, so the value and the
set are the same as for a flow to the root alone.  Classes are processed in
an order consistent with set containment: each set is located again in the
evolving graph by local search, with volume budgets doubling from the volume
of the class itself, and contracted away, once eagerly into a standalone
piece for the class just handled, once lazily in the evolving graph.  A
second phase repeats the construction on the reverse of every piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .digraph import (AUX_KOUT, ORDINARY, Digraph, GraphError,
                      contract_complement_reduced, materialize, vol_of)
from .flow import CertifiedSink, lambda_bounded, minimal_mincut_side
from .local_search import local_search_mset, randomized_local_search_mset
from .validation import check_k


class DecompositionError(RuntimeError):
    """A local search missed a set it should have found; the decomposition
    would be wrong, so the run is aborted instead."""


@dataclass
class ProperOrder:
    """Classes of vertices sharing one minimal k-out set, ordered so that a
    class with a strictly smaller set comes first; the no-set class is last."""

    classes: list  # (members ascending, frozenset k-out set | None), None last

    def non_bottom(self):
        return [(m, c) for (m, c) in self.classes if c is not None]


def proper_order(g, s, k):
    """Group vertices by their minimal k-out set avoiding s, in an order
    consistent with containment of those sets.

    Sets are found by one max-flow capped at k+1 per vertex, read twice:
    its value is min(lambda(v, s), k+1) and, at lambda = k, the residual
    reach of v is the set.  Each flow on g runs into s and the bottom
    vertices found so far (those with lambda(u, s) >= k+1), which by the
    lemma in the flow module gives the same value and set as a flow to s
    alone.  A side of more than one vertex that a flow on g returns
    classifies its later vertices at once, on its side graph (see
    _classify_inside); the others take flows on g.  Equal cardinality rules
    out strict containment, so ordering by (size, smallest member) is
    always a valid proper order.
    """
    by_set = {}
    bottom = []
    inside = {}  # later vertex -> (lambda, minimal side) from a side graph
    sink = CertifiedSink(g, s, k + 1)
    for v in g.ordinary_vertices():
        if v == s:
            bottom.append(v)
            continue
        lam, side = inside.pop(v, (None, None))
        if lam is None:
            lam, reach = sink.flow(v)
        if lam > k:
            sink.certify(v)
            bottom.append(v)
            continue
        if lam < k:
            raise GraphError(
                f"graph is not {k}-edge-connected: lambda({v},{s})={lam}")
        if side is None:
            side = frozenset(reach)
            if len(side) > 1:
                _classify_inside(g, side, v, k, inside)
        by_set.setdefault(side, []).append(v)
    classes = [(members, key) for key, members in by_set.items()]
    classes.sort(key=lambda mc: (len(mc[1]), min(mc[1])))
    classes.append((bottom, None))
    return ProperOrder(classes)


def _classify_inside(g, side, v, k, inside):
    """Record in inside the lambda and minimal side of every ordinary vertex
    of v's minimal side that comes after v and is not yet recorded.

    Each is read on the side graph (side with its complement contracted),
    from the vertex to the contracted complement, at a cost that follows
    vol(side) instead of the distance to the root.  That is exact: any
    (u, s)-cut T meets the side S in a cut with d+(T & S) <= d+(T), since
    d+(T | S) >= k = d+(S) by submodularity, so lambda(u, s) and u's minimal
    side are the same on the side graph as on g.
    """
    aux = contract_complement_reduced(g, side, k)
    back = {new: old for old, new in aux.vmap.items()}
    cuts = {}  # equal sides share one frozenset while they wait in inside
    for u in sorted(side):
        if u <= v or g.kind[u] != ORDINARY or u in inside:
            continue
        lam = lambda_bounded(aux.graph, aux.vmap[u], aux.vbar, k + 1)
        cut = None
        if lam == k:
            cut = frozenset(back[x] for x in minimal_mincut_side(
                aux.graph, aux.vmap[u], aux.vbar))
            cut = cuts.setdefault(cut, cut)
        inside[u] = (lam, cut)


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
    """One phase: process classes in proper order on an evolving copy of g,
    whose vertices have original ids orig.

    Returns [(graph, orig, start)]: the side graph of each class, started at
    its contracted complement, then the materialized remainder, started at s.
    When g is materialize's own output and no class is found, the remainder
    is g itself, since materializing it again would build the same arrays.
    Raises DecompositionError when a found set's ordinary vertices are not
    exactly its class.
    """
    classes = proper_order(g, s, k).non_bottom()
    if materialized and not classes:
        return [(g, list(orig), s)]
    gev = g.copy()
    gev.enable_lazy()
    out = []
    for members, _cut in classes:
        found = _find_min_out_set(gev, members, s, k, m0, mode, reps, rng)
        if {u for u in found if gev.kind[u] == ORDINARY} != set(members):
            raise DecompositionError(
                f"set found for vertex {members[0]} is not its class")
        aux = contract_complement_reduced(gev, found, k)
        out.append((aux.graph, _pull(orig, aux.vmap, aux.graph), aux.vbar))
        gev.contract_lazy(found, min(found), kind=AUX_KOUT)
    remainder, rmap = materialize(gev)
    out.append((remainder, _pull(orig, rmap, remainder), rmap[s]))
    return out


def decompose_kecc(g, k, delta, mode="det", rng=None, s=None):
    """Split a k-edge-connected digraph into pieces whose ordinary vertices
    are exactly the (k+1)-edge-connected components.

    mode "det" uses the deterministic local search; "rand" repeats the
    randomized one ceil(log2(2n/delta)) times per budget probe.  A missed
    set aborts with DecompositionError rather than returning a wrong answer.
    The first phase runs on g from s (default: the smallest live vertex),
    the second on the reverse of each of its outputs.
    """
    check_k(k)
    if mode not in ("det", "rand"):
        raise GraphError(f"unknown mode {mode!r}")
    if mode == "rand" and rng is None:
        raise GraphError("rand mode needs an rng")
    if not 0 < delta < 1:
        raise GraphError("delta must be in (0, 1)")
    live = g.vertices()
    if s is None:
        s = min(live)
    elif not g.is_live(s):
        raise GraphError(f"start vertex {s} is not live")
    m0 = max(1, g.m_live)
    reps = max(1, math.ceil(math.log2(2 * len(live) / delta)))

    base, base_map = materialize(g)
    phase1 = _phase(base, live, base_map[s], k, m0, mode, reps, rng,
                    materialized=True)
    pieces = []
    for idx, (h, orig, start) in enumerate(phase1):
        phase2 = _phase(h.reversed(), orig, start, k, max(1, h.m_live), mode,
                        reps, rng)
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
