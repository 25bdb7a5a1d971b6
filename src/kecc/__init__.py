"""kecc: edge-connectivity toolkit for directed multigraphs.

Bounded min-cut machinery, local searches for minimal out-sets, a
contraction-based connectivity decomposition, and partition drivers that
compute (k+2)-edge-connected components of k-edge-connected digraphs, all
cross-checkable against a built-in brute-force oracle.
"""

from .digraph import (AUXILIARY, ORDINARY, Digraph, GraphError,
                      ReversalOverlay, contract,
                      contract_complement_reduced, materialize, out_of, vol_of)
from .flow import (FlowState, flow_state, lambda_bounded, latest_mincut,
                   minimal_mincut_side)
from .local_search import (EMPTY, MSetResult, SearchBudget, amplified_mset,
                           find_out_paths, local_search_mset,
                           randomized_local_search_mset)
from . import partitions as _partitions
from .partitions import (Partition, ecc_naive, partition_from_msets, refine,
                         refine_many)
from .decompose import (DecompPiece, DecompositionError, decompose_kecc,
                        proper_order, verify_decomposition)
from .driver import (compute_4ecc_prepared, compute_k2ecc,
                     compute_partition_single, sample_count)
from .gen import gen, gen_blocks, gen_chain, gen_cyc, gen_kn, gen_random_kec, sub_rng
from .estimator import KPlusTwoComponents, PreparedFourComponents

__version__ = "0.1.0"


def good_partition(g, v, s, t):
    """The good partition of g at target connectivity t for the vertex v and
    the root s: kecc.partitions.good_partition of one (v, s)-flow capped at
    t."""
    return _partitions.good_partition(flow_state(g, v, s, t), t)


__all__ = [
    "AUXILIARY", "ORDINARY", "Digraph",
    "GraphError", "ReversalOverlay", "contract",
    "contract_complement_reduced", "materialize", "out_of", "vol_of",
    "FlowState", "flow_state", "lambda_bounded", "latest_mincut",
    "minimal_mincut_side", "EMPTY", "MSetResult", "SearchBudget",
    "amplified_mset", "find_out_paths", "local_search_mset",
    "randomized_local_search_mset", "Partition", "ecc_naive",
    "good_partition", "partition_from_msets", "refine", "refine_many",
    "DecompPiece", "DecompositionError", "decompose_kecc", "proper_order",
    "verify_decomposition", "compute_4ecc_prepared", "compute_k2ecc",
    "compute_partition_single", "sample_count", "gen", "gen_blocks",
    "gen_chain", "gen_cyc", "gen_kn", "gen_random_kec", "sub_rng",
    "KPlusTwoComponents", "PreparedFourComponents",
]
