"""Drivers: the single-graph partition algorithm (small-set pass plus edge
sampling with per-sample good partitions, run forward and reversed) and the
end-to-end pipeline that decomposes first and then partitions every piece.
"""

from __future__ import annotations

import math

from .digraph import GraphError
from .decompose import decompose_kecc
from .flow import CertifiedSink, flow_state, lambda_bounded
from .local_search import EMPTY, MSetResult, amplified_mset, local_search_mset
from .partitions import (Partition, good_partition_deficient,
                         good_partition_full, good_partition_low,
                         partition_from_msets, refine, refine_many)
from .validation import check_k

MODES = ("det", "rand", "exact")


def _check_mode(mode, rng):
    if mode not in MODES:
        raise GraphError(f"unknown mode {mode!r}; choose from {MODES}")
    if mode != "exact" and rng is None:
        raise GraphError(f"{mode} mode needs an rng")


def sample_count(n_ord, delta, mode):
    """Number of edges drawn by the sampling pass: ceil(sqrt(n) log2(2n/d))
    with deterministic searches, ceil(sqrt(n) log2(4n/d)) with randomized."""
    base = 4.0 if mode == "rand" else 2.0
    return math.ceil(math.sqrt(n_ord) * math.log2(base * n_ord / delta))


def _small_set_result(h, v, s, k, mode, search_delta, fail_prob, rng,
                      lam_cache, sink):
    """Small-pass search for the minimal (k+1)-out set of one vertex.

    sink holds s and the vertices of this pass already found at
    lambda(u, s) >= k+2.  By the lemma in the flow module, a capped flow
    into them gives min(lambda(v, s), k+2) exactly: when it reaches k+2, no
    (k+1)-out separator exists, Empty is certain, and v joins the sink.
    Otherwise all modes classify lambda(v, s) again with a capped flow to s
    alone.  Exact mode reads the answer off that flow's residual instead of
    searching: at lambda exactly k+1 the residual reach of v is the set.
    """
    if sink.flow(v)[0] == k + 2:
        lam_cache[v] = k + 2
        return EMPTY
    if mode == "exact":
        fs = flow_state(h, v, s, cap=k + 2)
        lam_cache[v] = fs.value
        if fs.value != k + 1:
            return EMPTY
        return MSetResult(fs.minimal_side())
    lam = lambda_bounded(h, v, s, k + 2)
    lam_cache[v] = lam
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
    lam_cache = {}
    results = {}
    sink = CertifiedSink(h, s, k + 2)
    for v in ordinary:
        if v == s:
            continue
        results[v] = _small_set_result(h, v, s, k, mode, search_delta,
                                       fail_prob, rng, lam_cache, sink)
    parts = [partition_from_msets(results, universe, ordinary)]
    if mode != "exact" and m > 0:
        draws = sample_count(n_ord, delta, mode)
        if stats is not None:
            stats.setdefault("samples", []).append(
                {"n_ord": n_ord, "delta": delta, "mode": mode, "draws": draws})
        live_edges = h.edges()
        seen = set()
        for _ in range(draws):
            e = live_edges[rng.randrange(len(live_edges))]
            v = h.tail(e)
            if v == s or v in seen:
                continue
            seen.add(v)
            lam = lam_cache.get(v)
            if lam is None:
                lam = lambda_bounded(h, v, s, k + 2)
            if lam == k + 1:
                parts.append(good_partition_full(h, v, s, k))
            elif lam == k:
                parts.append(good_partition_deficient(h, v, s, k))
            elif lam < k:
                if not low:
                    raise GraphError(
                        f"lambda({v},{s})={lam} below k: graph is not "
                        f"{k}-edge-connected")
                parts.append(good_partition_low(h, v, s))
    return refine_many(parts)


def compute_partition_single(h, k, delta, mode="rand", rng=None, s=None,
                             stats=None, low=False):
    """Partition the vertices of one prepared graph so that ordinary
    (k+2)-edge-connected pairs always share a block and other ordinary pairs
    are separated with probability at least 1 - delta.

    The graph's ordinary vertices must be (k+1)-edge-connected.  Runs the
    small-set pass and the sampling pass on the graph and on its reverse,
    and returns the common refinement.  In exact mode the output is
    deterministic and equals the (k+2)-connectivity classes of the ordinary
    vertices; the other modes sample edges and need an rng.

    Every flow and search of both passes, in both directions, is rooted at
    the ordinary vertex s.  By default s is the ordinary vertex with the
    largest min(in, out)-degree, the smallest id among equals: a root of
    degree k+1 would put every vertex at connectivity k+1 to it and send
    each one through the amplified small-set search.
    """
    check_k(k)
    _check_mode(mode, rng)
    if not 0 < delta < 1:
        raise GraphError("delta must be in (0, 1)")
    ordinary = h.ordinary_vertices()
    if not ordinary:
        raise GraphError("graph has no ordinary vertex")
    if s is None:
        # max keeps the first, i.e. smallest, of equally connected vertices
        s = max(ordinary, key=lambda v: min(h.in_deg[v], h.out_deg[v]))
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
    _check_mode(mode, rng)
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

    Same driver as the general algorithm with k=2; sampled vertices at
    connectivity below 2 are handled through the latest-mincut construction
    for low connectivities.  s roots the partition; by default it is the
    ordinary vertex with the largest min(in, out)-degree, as in
    compute_partition_single.
    """
    return compute_partition_single(h, 2, delta, mode, rng, s=s, stats=stats,
                                    low=True)
