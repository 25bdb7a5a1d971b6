"""The benchmark's workloads: seeded inputs, the mode they run in, the truth
their outputs are checked against, and which wrapped layers must fire.

All three use k=2.  The rk workloads use delta=0.25, the command line and
estimator default.  chain-rand runs ~300 randomized searches per call, and at
delta=0.25 about one call in 60 ended in the DecompositionError that the
randomized decomposition may raise (it is allowed up to delta/2); at
delta=1e-4 each search gets 12 more repetitions, each failing with
probability at most 1/2, which brings that to about one call in 250 000.
A workload's input at one seed is a suite of graphs from seeds derived from
it, each with a half-size companion from the same generator, seed and root
stratum, from which ``time_exponent`` is read.  Single random graphs of one
size differ in cost by 20-40 % from seed to seed, mostly through the degree
of the root vertex; the harness reports the geometric mean over the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from kecc import Digraph, gen_chain, gen_random_kec, sub_rng

import reference

K = 2
CHAIN_BLOCK = 6


@dataclass(frozen=True)
class Inputs:
    graph: Digraph
    planted: list | None  # truth by construction, when the generator has one


def relabel(g, perm):
    """Copy of g with vertex v renamed perm[v]."""
    h = Digraph()
    h.add_vertices(len(perm))
    for e in g.edges():
        t, hd = g.ends(e)
        h.add_edge(perm[t], perm[hd])
    return h


def min_degree(g, v):
    return min(g.in_deg[v], g.out_deg[v])


def random_kec(n, seed, quantile):
    """gen_random_kec(n, 2, 6n, seed) with vertex 0 swapped for a vertex whose
    min(in-degree, out-degree) sits at `quantile` of its distribution.

    The driver roots its flows at the smallest vertex id, and a call costs
    about 1.6x more with a root of degree 4 than of degree 10 (every flow to
    a thin root searches further), and about 10x more in rand mode with a
    root of degree k+1 = 3 or less, which 3 % of vertices have.  A suite that
    takes one root degree per quantile stratum holds the same mix of roots at
    every seed, the slow case included.
    """
    g = gen_random_kec(n, K, 6 * n, seed)
    # k cycle arcs plus Binomial(6n, 1/n) ~ Poisson(6) random arcs each way
    pmf, cdf, degree = math.exp(-6.0), 0.0, K
    while True:
        cdf += pmf
        if 1 - (1 - cdf) ** 2 >= quantile:
            break
        pmf *= 6.0 / (degree - K + 1)
        degree += 1
    root = min(range(n), key=lambda v: (abs(min_degree(g, v) - degree), v))
    perm = list(range(n))
    perm[0], perm[root] = root, 0
    return Inputs(relabel(g, perm), None)


def chain(blocks, seed, _quantile=None):
    """gen_chain(blocks, 6, 1) with vertex ids permuted by the seed.

    Consecutive complete blocks are joined by one arc each way, so every block
    is a 2-out set and the (k+2)-connected components are the blocks.
    """
    g = gen_chain(blocks, CHAIN_BLOCK, 1)
    perm = list(range(g.n_live))
    sub_rng(seed, "perfbench-relabel").shuffle(perm)
    planted = [sorted(perm[b * CHAIN_BLOCK + i] for i in range(CHAIN_BLOCK))
               for b in range(blocks)]
    return Inputs(relabel(g, perm), sorted(planted))


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    delta: float
    build: object  # (size, seed, root quantile) -> Inputs
    size: int  # companion graphs use size // 2
    graphs: int  # suite length
    must_equal: bool  # rand mode may leave truly separated pairs together
    must_fire: tuple  # span names whose call count must be > 0 when traced
    must_not_fire: tuple  # span names whose call count must be 0

    def suite(self, seed):
        """[(main, half-size companion)] for a seed."""
        out = []
        for i in range(self.graphs):
            sub, quantile = f"{seed}/{i}", (i + 0.5) / self.graphs
            out.append((self.build(self.size, sub, quantile),
                        self.build(self.size // 2, sub, quantile)))
        return out


WORKLOADS = {
    w.name: w for w in (
        Workload("rk-rand", "rand", 0.25, random_kec, 300, 16, False,
                 ("flow.lambda_bounded.gate", "partitions.ecc_naive"), ()),
        Workload("chain-rand", "rand", 1e-4, chain, 150, 4, True,
                 ("local_search.randomized_local_search_mset",
                  "digraph.contract_complement_reduced"), ()),
        Workload("rk-exact", "exact", 0.25, random_kec, 300, 16, True,
                 ("flow.flow_state",),
                 ("partitions.ecc_naive", "flow.lambda_bounded.gate")),
    )
}


def truth(inputs):
    """The (k+2)-edge-connected components as sorted blocks."""
    if inputs.planted is not None:
        return inputs.planted
    return reference.ecc_components(inputs.graph, K + 2)


def pairs(sizes):
    return sum(s * (s - 1) // 2 for s in sizes)


def check(must_equal, blocks, true_blocks):
    """(ok, missed pairs) for one output against the truth.

    An output that must equal the truth is checked for equality.  Otherwise
    (rand mode) it must never separate a truly (k+2)-connected pair; pairs it
    leaves together that the truth separates are missed, which the
    randomized guarantee tolerates.
    """
    if must_equal:
        return blocks == true_blocks, 0
    label = {v: i for i, b in enumerate(blocks) for v in b}
    if any(len({label[v] for v in b}) != 1 for b in true_blocks):
        return False, 0
    return True, pairs(map(len, blocks)) - pairs(map(len, true_blocks))


def separated_pairs(true_blocks):
    n = sum(map(len, true_blocks))
    return n * (n - 1) // 2 - pairs(map(len, true_blocks))
