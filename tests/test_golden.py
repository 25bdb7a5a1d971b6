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

from kecc import compute_k2ecc, decompose_kecc, gen_chain, gen_random_kec

# compute_k2ecc(gen_random_kec(120, 2, 600, seed), k=2, delta=0.25, mode)
K2ECC_DIGESTS = {
    ("det", 0): "970d702efd4c72d806c823042ac5ebf69fe7044656d9cdf05a4cf6e32219283e",
    ("det", 1): "525280de79ca7ce2d7ad9aa4767c6ab29adf1371d22b5968d8340a5100746f23",
    ("det", 2): "156182334a6557d83e0f1d197a4ab6f71aa03d1c47e56387454f240b058405fc",
    ("rand", 0): "f7634760972a718d3ce4d6f4a1e893200b46b11b921c4c22571129910d5ff8c9",
    ("rand", 1): "ebe415d9dc9e63e6b05ef9d15365a7dd42a09124c302fae188c055e745f48b20",
    ("rand", 2): "faa4d3647b1bd8e60d5bceee71a2d73167fd0ec43727403c95b9f85ff74e6126",
    ("exact", 0): "1b099544f70efd137edbac1136fef07cff6e962feee557c265aad36d4ed6162a",
    ("exact", 1): "371c30c111a9a9c894d314f05e1b73c76af4e686ab4a2fc595ed326b19a5e1c3",
    ("exact", 2): "cc0aceba35610da2619a8c423671e0f5d988ea100b2ea84a6019d5329afe774a",
}

# decompose_kecc(gen_chain(30, 6, 1), k=2, delta=0.25, "rand")
PIECES_DIGEST = "96c985d960f4703230a3ec18171f4e5f0706a09efb112ea47b6c69c7136d04c0"


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def k2ecc_digest(mode, seed):
    g = gen_random_kec(120, 2, 600, seed)
    rng = random.Random(seed)
    stats = {}
    part = compute_k2ecc(g, 2, 0.25, mode, rng, stats=stats)
    labels = [part.label[v] for v in part.universe]
    return _digest([labels, stats, rng.random()])


def pieces_digest():
    g = gen_chain(30, 6, 1)
    rng = random.Random(0)
    rows = []
    for p in decompose_kecc(g, 2, 0.25, "rand", rng):
        h = p.graph
        adjacency = [[v, [h.head(e) for e in h.out_edges(v)]]
                     for v in h.vertices()]
        rows.append([p.orig, p.ordinary, list(p.provenance), h.kind,
                     adjacency])
    return _digest([rows, rng.random()])


@pytest.mark.parametrize("mode,seed", sorted(K2ECC_DIGESTS))
def test_k2ecc_byte_stable(mode, seed):
    assert k2ecc_digest(mode, seed) == K2ECC_DIGESTS[mode, seed]


def test_decomposition_pieces_byte_stable():
    assert pieces_digest() == PIECES_DIGEST
