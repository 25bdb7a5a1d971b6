"""Seeded graph generators for tests, benchmarks and the command line."""

from __future__ import annotations

import random

from .digraph import GraphError, from_arcs


def sub_rng(seed, label):
    """Independent reproducible stream derived from a seed and a label."""
    return random.Random(f"{seed}:{label}")


def gen_cyc(n, k):
    """Directed cycle on n vertices, every arc with multiplicity k."""
    if n < 2 or k < 1:
        raise GraphError("cyc needs n >= 2, k >= 1")
    return from_arcs(n, [(v, (v + 1) % n, k) for v in range(n)])


def _complete(vertices):
    return [(u, v, 1) for u in vertices for v in vertices if u != v]


def gen_kn(n):
    """Complete digraph: one arc per ordered pair."""
    if n < 2:
        raise GraphError("kn needs n >= 2")
    return from_arcs(n, _complete(range(n)))


def gen_blocks(p, q, k):
    """Two complete blocks A (ids 0..p-1) and B (ids p..p+q-1) tied together
    by k parallel arcs a0 -> b0 and k parallel arcs b0 -> a0."""
    if p < 2 or q < 2 or k < 1:
        raise GraphError("blocks needs p, q >= 2 and k >= 1")
    arcs = _complete(range(p)) + _complete(range(p, p + q))
    return from_arcs(p + q, arcs + [(0, p, k), (p, 0, k)])


def gen_chain(blocks, size, k):
    """A cycle of complete blocks, consecutive ones joined by k parallel arcs
    in each direction between their first vertices."""
    if blocks < 2 or size < 2 or k < 1:
        raise GraphError("chain needs blocks >= 2, size >= 2, k >= 1")
    arcs = []
    for b in range(blocks):
        arcs += _complete(range(b * size, (b + 1) * size))
    for b in range(blocks):
        nxt = ((b + 1) % blocks) * size
        arcs += [(b * size, nxt, k), (nxt, b * size, k)]
    return from_arcs(blocks * size, arcs)


def gen_random_kec(n, k, extra, seed):
    """Union of k Hamiltonian cycles on random permutations plus `extra`
    uniform random arcs; k-edge-connected by construction, since every cut
    is crossed by each cycle at least once."""
    if n < 2 or k < 1 or extra < 0:
        raise GraphError("random-kec needs n >= 2, k >= 1, extra >= 0")
    rng = sub_rng(seed, "random-kec")
    arcs = []
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        arcs += [(perm[i], perm[(i + 1) % n], 1) for i in range(n)]
    added = 0
    while added < extra:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            arcs.append((u, v, 1))
            added += 1
    return from_arcs(n, arcs)


MODELS = ("cyc", "kn", "blocks", "chain", "random-kec")


def gen(model, seed=0, **params):
    """Dispatch by model name; used by the command-line generator."""
    try:
        if model == "cyc":
            return gen_cyc(params["n"], params.get("k", 1))
        if model == "kn":
            return gen_kn(params["n"])
        if model == "blocks":
            return gen_blocks(params["p"], params["q"], params.get("k", 1))
        if model == "chain":
            return gen_chain(params["blocks"], params.get("size", 5),
                             params.get("k", 1))
        if model == "random-kec":
            return gen_random_kec(params["n"], params.get("k", 1),
                                  params.get("extra", 0), seed)
    except KeyError as exc:
        raise GraphError(f"model {model!r} missing parameter {exc}") from None
    raise GraphError(f"unknown model {model!r}; choose from {MODELS}")
