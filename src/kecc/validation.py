"""Input validation helpers for the estimator layer and the drivers."""

from __future__ import annotations

import operator

from .digraph import Digraph, GraphError, from_arcs


def check_k(k):
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise GraphError(f"k must be a positive integer, got {k!r}")
    return k


def check_delta(delta):
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return delta


def check_mode(mode, allowed=("det", "rand", "exact")):
    if mode not in allowed:
        raise ValueError(f"mode must be one of {allowed}, got {mode!r}")
    return mode


def _integer(x):
    try:
        return operator.index(x)
    except TypeError:
        raise GraphError(f"vertex ids and multiplicities must be integers, "
                         f"got {x!r}") from None


def as_digraph(X, ordinary=None):
    """Coerce common edge-list shapes into a Digraph.

    Accepts a Digraph (copied before `ordinary` marks are applied, so the
    caller's graph is never changed), an (n, edges) pair, or a bare iterable
    of (u, v) / (u, v, multiplicity) tuples over 0-based integer ids.
    `ordinary` optionally restricts which vertices carry component claims.
    """
    if isinstance(X, Digraph):
        g = X
        if ordinary is not None:
            g = X.copy()
            g.set_ordinary(ordinary)
    else:
        if isinstance(X, tuple) and len(X) == 2 and isinstance(X[0], int):
            n, edges = X
        else:
            edges = X
            n = None
        arcs = []
        for row in edges:
            if len(row) == 2:
                u, v = row
                mult = 1
            else:
                u, v, mult = row
            arcs.append((_integer(u), _integer(v), _integer(mult)))
        if n is None:
            n = max((max(u, v) + 1 for u, v, _ in arcs), default=0)
        g = from_arcs(n, arcs, ordinary)
    if g.n_live == 0:
        raise GraphError("empty graph")
    return g
