"""Drivers: the single-graph partition algorithm (small-set pass plus edge
sampling with per-sample good partitions, run forward and reversed) and the
end-to-end pipeline that decomposes first and then partitions every piece.
"""

from __future__ import annotations

import math

from .digraph import GraphError
from .decompose import decompose_kecc
from .flow import flow_state, lambda_bounded
from .local_search import EMPTY, MSetResult, amplified_mset, local_search_mset
from .partitions import (Partition, good_partition, partition_from_msets,
                         refine, refine_many)
from .validation import check_delta, check_k, check_mode

# not called here; perfbench's tracer wraps both names in this module
good_partition_full = good_partition_deficient = good_partition


def sample_count(n_ord, delta, mode):
    """Number of edges drawn by the sampling pass: ceil(sqrt(n) log2(2n/d))
    with deterministic searches, ceil(sqrt(n) log2(4n/d)) with randomized."""
    base = 4.0 if mode == "rand" else 2.0
    return math.ceil(math.sqrt(n_ord) * math.log2(base * n_ord / delta))


def _check_value(lam, v, s, k, low):
    """Raise GraphError for a value below k, unless low accepts it."""
    if lam < k and not low:
        raise GraphError(f"lambda({v},{s})={lam} below k: graph is not "
                         f"{k}-edge-connected")


def _small_set_result(h, v, s, k, mode, search_delta, fail_prob, rng, sinks,
                      low):
    """Small-pass search for the minimal (k+1)-out set of one vertex.

    sinks marks s and the vertices of this pass already found at
    lambda(u, s) >= k+2.  By the lemma in the flow module, one flow capped
    at k+2 into them gives min(lambda(v, s), k+2) exactly: when it reaches
    k+2, no (k+1)-out separator exists, Empty is certain, and v joins the
    sinks.  Exact mode reads the answer off that flow's residual instead of
    searching: at lambda exactly k+1 the residual reach of v is the set.
    """
    if mode == "exact":
        fs = flow_state(h, v, s, k + 2, sinks)
        _check_value(fs.value, v, s, k, low)
        if fs.value != k + 1:
            return EMPTY
        return MSetResult(fs.minimal_side())
    lam = lambda_bounded(h, v, s, k + 2, sinks)
    _check_value(lam, v, s, k, low)
    if lam >= k + 2:
        return EMPTY
    if mode == "det":
        return local_search_mset(h, v, s, k + 1, search_delta)
    return amplified_mset(h, v, s, k + 1, search_delta, fail_prob, rng)


def _one_direction(h, s, k, delta, mode, rng, low, stats):
    ordinary = h.ordinary_vertices()
    n_ord = len(ordinary)
    m = h.m_live
    universe = tuple(sorted(h.vertices()))
    search_delta = max(1, math.ceil(m / math.sqrt(n_ord)))
    if mode == "exact":
        search_delta = m
    fail_prob = delta / (4 * n_ord)  # per-vertex budget for amplification
    sinks = bytearray(h.n_slots())
    sinks[s] = 1
    results = {v: _small_set_result(h, v, s, k, mode, search_delta, fail_prob,
                                    rng, sinks, low)
               for v in ordinary if v != s}
    parts = [partition_from_msets(results, universe, ordinary)]
    if mode != "exact" and m > 0:
        draws = sample_count(n_ord, delta, mode)
        if stats is not None:
            stats.setdefault("samples", []).append(
                {"n_ord": n_ord, "delta": delta, "mode": mode, "draws": draws})
        live_edges = h.edges()
        # the distinct tails in the order they were first drawn
        sampled = dict.fromkeys(
            h.tail(live_edges[rng.randrange(len(live_edges))])
            for _ in range(draws))
        sampled.pop(s, None)
        for v in sampled:
            if sinks[v]:
                continue  # certified at lambda(v, s) >= k+2
            fs = flow_state(h, v, s, k + 2, sinks)
            _check_value(fs.value, v, s, k, low)
            if fs.value <= k + 1:
                parts.append(good_partition(fs, k + 2))
    return refine_many(parts)


def compute_partition_single(h, k, delta, mode="rand", rng=None, s=None,
                             stats=None, low=False):
    """Partition the vertices of one prepared graph so that ordinary
    (k+2)-edge-connected pairs always share a block and other ordinary pairs
    are separated with probability at least 1 - delta.

    The graph's ordinary vertices must be (k+1)-edge-connected.  Runs the
    small-set pass and the sampling pass on the graph and on its reverse,
    and returns the common refinement.  Every sampled vertex with
    lambda(v, s) <= k+1 gets the good partition at k+2 of one flow into s
    and the vertices certified at lambda(u, s) >= k+2.  A vertex found
    at lambda(v, s) < k, by either pass, raises GraphError unless low is
    set.  In exact mode the output is deterministic and equals the
    (k+2)-connectivity classes of the ordinary vertices; the other modes
    sample edges and need an rng.

    Every flow and search of both passes, in both directions, is rooted at
    the ordinary vertex s.  By default s is the ordinary vertex with the
    largest min(in, out)-degree, the smallest id among equals: a root of
    degree k+1 would put every vertex at connectivity k+1 to it and send
    each one through the amplified small-set search.
    """
    check_k(k)
    check_mode(mode, rng)
    check_delta(delta)
    ordinary = h.ordinary_vertices()
    if not ordinary:
        raise GraphError("graph has no ordinary vertex")
    if s is None:
        # max keeps the first, i.e. smallest, of equally connected vertices
        s = max(ordinary, key=lambda v: min(len(h.inn[v]), len(h.out[v])))
    elif s not in ordinary:
        raise GraphError(f"start vertex {s} is not a live ordinary vertex")
    forward = _one_direction(h, s, k, delta, mode, rng, low, stats)
    hr = h.reversed()
    backward = _one_direction(hr, s, k, delta, mode, rng, low, stats)
    return refine(forward, backward)


def compute_k2ecc(g, k, delta, mode="rand", rng=None, s=None, stats=None):
    """(k+2)-edge-connected components of a k-edge-connected digraph.

    Decomposes with failure budget delta/2, partitions each piece with
    budget delta/(2n), and stitches the per-piece blocks back together:
    vertices from different pieces are never merged.  s roots the
    decomposition (default: the smallest live id); each piece is rooted at
    its best-connected ordinary vertex, as in compute_partition_single.
    """
    check_mode(mode, rng)
    check_delta(delta)
    decomp_mode = "rand" if mode == "rand" else "det"
    pieces = decompose_kecc(g, k, delta / 2, decomp_mode, rng, s=s)
    if stats is not None:
        stats["pieces"] = len(pieces)
    n = g.n_live
    piece_delta = delta / (2 * n)
    key = {}
    for i, piece in enumerate(pieces):
        part = compute_partition_single(piece.graph, k, piece_delta, mode,
                                        rng, stats=stats)
        local = piece.local_of()
        for o in piece.ordinary:
            key[o] = (i, part.label[local[o]])
    return Partition.from_key(sorted(g.vertices()), key.__getitem__)


def compute_4ecc_prepared(h, delta, mode="rand", rng=None, s=None, stats=None):
    """4-edge-connected components of the ordinary vertices of a strongly
    connected graph whose ordinary vertices are 3-edge-connected.

    Same driver as the general algorithm with k=2, except that vertices at
    connectivity 1 are accepted and get the same good partition at t=4.  s
    roots the partition; by default it is the ordinary vertex with the
    largest min(in, out)-degree, as in compute_partition_single.
    """
    return compute_partition_single(h, 2, delta, mode, rng, s=s, stats=stats,
                                    low=True)
