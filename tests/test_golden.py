"""Byte-stability pins for the seeded pipeline.

Each digest covers an output together with the next draw of the caller's rng,
so a change in traversal order, in search budgets or in how much randomness a
search consumes shows up here even when the partition itself survives.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from kecc import (compute_4ecc_prepared, compute_k2ecc, decompose_kecc,
                  flow_state, gen_chain, gen_random_kec, good_partition,
                  lambda_bounded)
from kecc.digraph import Digraph, ReversalOverlay, contract, materialize
from kecc.oracle import ecc_components, mutually_connected

from conftest import random_strongly_connected, random_walk

# compute_k2ecc(gen_random_kec(120, 2, 600, seed), k=2, delta=0.25, mode)
K2ECC_DIGESTS = {
    ("det", 0): "970d702efd4c72d806c823042ac5ebf69fe7044656d9cdf05a4cf6e32219283e",
    ("det", 1): "525280de79ca7ce2d7ad9aa4767c6ab29adf1371d22b5968d8340a5100746f23",
    ("det", 2): "156182334a6557d83e0f1d197a4ab6f71aa03d1c47e56387454f240b058405fc",
    ("rand", 0): "bd2415b0db121f2a204236252089bb7dec965cfe1b7e7138efe0738c0625753e",
    ("rand", 1): "5bec8f82a0d74e1f4e31c1d21498cef10bdd11e45595ef597a02af17f09c9df5",
    ("rand", 2): "47232618cf61b49d16b5c3373bd945c85ceecc7b3b2ade2c3eb1384c551923c7",
    ("exact", 0): "1b099544f70efd137edbac1136fef07cff6e962feee557c265aad36d4ed6162a",
    ("exact", 1): "371c30c111a9a9c894d314f05e1b73c76af4e686ab4a2fc595ed326b19a5e1c3",
    ("exact", 2): "cc0aceba35610da2619a8c423671e0f5d988ea100b2ea84a6019d5329afe774a",
}

# decompose_kecc(gen_chain(30, 6, 1), k=2, delta=0.25, "rand"): the piece
# rows with the next rng draw, and the rows alone, which no change in how
# many draws the decomposition makes can move
PIECES_DIGEST = "7da14d35a97c6155bf6ef03442dd906eda0b42cbeee511862450395276363ac8"
PIECES_ROWS_DIGEST = "a052af8d92d4061f2079299a077fdd4df6066004c6319757f985d26f3fd54fcd"

# compute_4ecc_prepared(piece.graph, 0.25, "rand", rng) over the pieces of
# decompose_kecc(g, 2, 0.25, "rand", Random(0)), one rng = Random(1) shared
# by all pieces.  chain makes 59 good_partition calls, all at
# lambda(v, s) = 2; rk makes 8, 6 at lambda = 2 and 2 at lambda = 3.  None
# is below k, so these pins do not reach the path that only low accepts;
# test_4ecc_prepared_accepts_lambda_one does.
LOW_GRAPHS = {"chain": lambda: gen_chain(30, 6, 1),
              "rk": lambda: gen_random_kec(120, 2, 600, 0)}
LOW_DIGESTS = {
    "chain": "9e5665cbb43115370c688669282f94e139419a9c068407aa03d72b86b958199c",
    "rk": "31f4e8b9d10b92e72a086419796d451b5857cd820a4df11176edc228ea0e7319",
}

# good_partition(flow_state(g, v, s, k + 3), k + 3) over k3_cases(), the
# (k+3) refinement; on the cases listed in K3_NOT_PINNED an earlier version
# raised GraphError, so only the others are pinned
K3_DIGEST = "f9bc75791f04844923c4847ea9493c8ef520612712becac316990ebf0409435c"
K3_NOT_PINNED = (25, 66, 147, 152, 229, 252, 266, 272, 279, 283, 285, 291,
                 303, 310, 325, 341, 344, 387, 398, 438, 482, 483, 509, 571)

# adjacency_rows(): the order in which succ and pred list edges, on graphs
# and on overlays, after every kind of graph change
ADJACENCY_ORDER_DIGEST = "19f5830a077473c14a2163b35dbdf346ab14cfa3739de7cad227a72af398040b"


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def k2ecc_run(mode, seed):
    """(graph, partition, digest) of one pinned compute_k2ecc call."""
    g = gen_random_kec(120, 2, 600, seed)
    rng = random.Random(seed)
    stats = {}
    part = compute_k2ecc(g, 2, 0.25, mode, rng, stats=stats)
    labels = [part.label[v] for v in part.universe]
    return g, part, _digest([labels, stats, rng.random()])


def piece_rows():
    """(rows, rng) of the pinned decomposition: one row per piece, and the
    rng the decomposition drew from."""
    g = gen_chain(30, 6, 1)
    rng = random.Random(0)
    rows = []
    for p in decompose_kecc(g, 2, 0.25, "rand", rng):
        h = p.graph
        adjacency = [[v, [h.head(e) for e in h.out_edges(v)]]
                     for v in h.vertices()]
        rows.append([p.orig, p.ordinary, list(p.provenance), h.kind,
                     adjacency])
    return rows, rng


def pieces_digest():
    rows, rng = piece_rows()
    return _digest([rows, rng.random()])


def low_run(g):
    """([(piece graph, partition)], digest) of one pinned pass over the
    pieces of g."""
    rng = random.Random(1)
    parts = []
    for p in decompose_kecc(g, 2, 0.25, "rand", random.Random(0)):
        parts.append((p.graph, compute_4ecc_prepared(p.graph, 0.25, "rand",
                                                     rng)))
    rows = [[part.label[v] for v in part.universe] for _h, part in parts]
    return parts, _digest([rows, rng.random()])


def adjacency_rows():
    """succ and pred of every live vertex, through the graph and through an
    overlay after seeded path reversals, over a seeded corpus of multigraphs
    taken through edge deletion, nested in-place contraction, copy, reverse,
    materialize and eager contraction."""
    rng = random.Random(14)
    rows = []
    for _ in range(60):
        n = rng.randrange(5, 11)
        g = Digraph()
        g.add_vertices(n)
        for _ in range(rng.randrange(n, 4 * n)):
            u, v = rng.sample(range(n), 2)
            g.add_edge(u, v, copies=rng.randrange(1, 4))
        for e in rng.sample(g.edges(), g.m_live // 5):
            g.delete_edge(e)
        lazy = g.copy()
        # two nested sets, the second holding the first one's representative;
        # each leaves at least three live vertices
        members = rng.sample(range(n), rng.randrange(2, n - 2))
        rep = rng.choice(members)
        lazy.contract_lazy(members, rep)
        others = [v for v in lazy.vertices() if v != rep]
        members = rng.sample(others, rng.randrange(1, len(others) - 1)) + [rep]
        rep = rng.choice(members)
        lazy.contract_lazy(members, rep)
        if lazy.m_live:
            lazy.delete_edge(rng.choice(lazy.edges()))
        changed = lazy.copy()
        if changed.m_live:
            changed.delete_edge(rng.choice(changed.edges()))
        pair = rng.sample(g.vertices(), 2)
        for h in (g, lazy, changed, g.reversed(), lazy.reversed(),
                  materialize(lazy)[0], contract(g, pair)[0],
                  contract(lazy, lazy.vertices()[:2])[0]):
            rows.append([[list(h.succ(v)), list(h.pred(v))]
                         for v in h.vertices()])
            ov = ReversalOverlay(h)
            for _ in range(3):
                walk = random_walk(h, ov, rng, rng.choice(h.vertices()))
                if walk:
                    ov.reverse_path(walk)
            rows.append([[list(ov.succ(v)), list(ov.pred(v))]
                         for v in h.vertices()])
    return rows


def assert_splits_no_connected_pair(g, part, c):
    """One-sided oracle check: no class of mutually c-connected ordinary
    vertices is split."""
    ordinary = g.ordinary_vertices()
    for block in ecc_components(g, c).restrict(ordinary).blocks():
        assert len({part.label[v] for v in block}) == 1, block


def k3_cases():
    """600 seeded (g, v, s, k) with k <= lambda(v, s) <= k+2, dense enough
    that some hold mutually (k+3)-connected pairs."""
    rng = random.Random(5)
    out = []
    while len(out) < 600:
        g = random_strongly_connected(rng, rng.randrange(4, 9),
                                      rng.randrange(4, 40))
        v, s = rng.sample(range(g.n_live), 2)
        k = rng.randrange(1, 3)
        if k <= lambda_bounded(g, v, s, k + 3) <= k + 2:
            out.append((g, v, s, k))
    return out


@pytest.mark.parametrize("mode,seed", sorted(K2ECC_DIGESTS))
def test_k2ecc_byte_stable(mode, seed):
    assert k2ecc_run(mode, seed)[2] == K2ECC_DIGESTS[mode, seed]


# the rand-mode pins include rng draws, so a change in how many draws a run
# makes moves them; the oracle judges the partitions themselves
@pytest.mark.parametrize("seed", range(3))
def test_k2ecc_rand_pins_split_no_connected_pair(seed):
    g, part, _ = k2ecc_run("rand", seed)
    assert_splits_no_connected_pair(g, part, 4)


def test_decomposition_pieces_byte_stable():
    assert pieces_digest() == PIECES_DIGEST


def test_decomposition_piece_rows_byte_stable():
    assert _digest(piece_rows()[0]) == PIECES_ROWS_DIGEST


@pytest.mark.parametrize("name", sorted(LOW_DIGESTS))
def test_4ecc_prepared_byte_stable(name):
    assert low_run(LOW_GRAPHS[name]())[1] == LOW_DIGESTS[name]


def test_4ecc_prepared_rk_pin_splits_no_connected_pair():
    parts, _ = low_run(LOW_GRAPHS["rk"]())
    for h, part in parts:
        assert_splits_no_connected_pair(h, part, 4)


def test_4ecc_prepared_chain_pin_splits_no_connected_pair():
    parts, _ = low_run(LOW_GRAPHS["chain"]())
    for h, part in parts:
        assert_splits_no_connected_pair(h, part, 4)


def test_adjacency_order_byte_stable():
    assert _digest(adjacency_rows()) == ADJACENCY_ORDER_DIGEST


def test_good_partition_k3_byte_stable():
    rows = []
    for i, (g, v, s, k) in enumerate(k3_cases()):
        if i not in K3_NOT_PINNED:
            part = good_partition(flow_state(g, v, s, k + 3), k + 3)
            rows.append([i, [part.label[u] for u in part.universe]])
    assert _digest(rows) == K3_DIGEST


def test_good_partition_k3_unpinned_cases_split_no_connected_pair():
    cases = k3_cases()
    checked = 0
    for i in K3_NOT_PINNED:
        g, v, s, k = cases[i]
        part = good_partition(flow_state(g, v, s, k + 3), k + 3)
        verts = sorted(g.vertices())
        for j, a in enumerate(verts):
            for b in verts[j + 1:]:
                if mutually_connected(g, a, b, k + 3):
                    assert part.same_block(a, b), (i, a, b)
                    checked += 1
    assert checked
