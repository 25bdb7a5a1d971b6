"""Estimator facade: parameter protocol, fitting, validation helpers."""

import pytest

import kecc
from kecc.digraph import GraphError, from_arcs
from kecc.driver import compute_k2ecc
from kecc.estimator import KPlusTwoComponents, PreparedFourComponents
from kecc.gen import gen_blocks, gen_chain, sub_rng
from kecc.validation import as_digraph, check_delta, check_k


def blocks_edges():
    g = gen_blocks(5, 5, 2)
    return [(g.tail(e), g.head(e)) for e in g.edges()]


def test_get_set_params_roundtrip():
    est = KPlusTwoComponents(k=3, delta=0.1, mode="exact", seed=7)
    params = est.get_params()
    assert params == {"k": 3, "delta": 0.1, "mode": "exact", "seed": 7}
    est.set_params(k=2, seed=1)
    assert est.k == 2 and est.seed == 1
    with pytest.raises(ValueError):
        est.set_params(gamma=1)


def test_fit_rejects_det_mode():
    named = r"^mode must be one of \('rand', 'exact'\), got 'det'$"
    for est in (KPlusTwoComponents(mode="det"),
                PreparedFourComponents(mode="det")):
        with pytest.raises(GraphError, match=named):
            est.fit(blocks_edges())
        assert est.labels_ is None


def test_public_names_resolve():
    # a stale __all__ entry would break `from kecc import *`
    assert [name for name in kecc.__all__ if not hasattr(kecc, name)] == []


def test_fit_matches_driver():
    est = KPlusTwoComponents(k=2, delta=0.2, mode="rand", seed=11)
    labels = est.fit_predict(blocks_edges())
    want = compute_k2ecc(gen_blocks(5, 5, 2), 2, 0.2, "rand",
                         sub_rng(11, "k2ecc"))
    assert labels == [want.label[v] for v in want.universe]
    assert est.n_components_ == 2
    assert repr(est).startswith("KPlusTwoComponents(")


def test_fit_accepts_digraph_and_pairs():
    g = gen_blocks(5, 5, 2)
    est = KPlusTwoComponents(k=2, delta=0.2, mode="exact")
    as_graph = est.fit(g).labels_
    as_pair = est.fit((10, blocks_edges())).labels_
    assert as_graph == as_pair


def test_estimator_validates_params():
    with pytest.raises(ValueError):
        KPlusTwoComponents(k=0).fit(blocks_edges())
    with pytest.raises(ValueError):
        KPlusTwoComponents(delta=2.0).fit(blocks_edges())
    with pytest.raises(ValueError):
        KPlusTwoComponents(mode="nope").fit(blocks_edges())


def test_prepared_four_components():
    g = gen_chain(2, 5, 1)
    est = PreparedFourComponents(delta=0.2, mode="rand", seed=3)
    labels = est.fit_predict(g)
    assert labels == [0] * 5 + [1] * 5
    assert est.n_components_ == 2


def test_k2ecc_labels_follow_vertex_ids():
    # o-marked like the CLI's chain file: the 45 ordinary vertices are nine
    # 5-cliques, and the auxiliary last block gets the noise label -1
    g = gen_chain(10, 5, 1)
    g.set_ordinary(range(45))
    for mode in ("rand", "exact"):
        est = KPlusTwoComponents(k=2, mode=mode, seed=1)
        assert est.fit_predict(g) == [v // 5 for v in range(45)] + [-1] * 5
        assert est.n_components_ == 9


def test_prepared_four_labels_follow_vertex_ids():
    # two 5-cliques joined by three arcs each way: the ordinary vertices are
    # 3-edge-connected and split into the two cliques; 3 and 8 are auxiliary
    def clique(b):
        return [(u, v, 1) for u in range(b, b + 5) for v in range(b, b + 5)
                if u != v]
    g = from_arcs(10, clique(0) + clique(5) + [(0, 5, 3), (5, 0, 3)],
                  ordinary=[0, 1, 2, 4, 5, 6, 7, 9])
    for mode in ("rand", "exact"):
        est = PreparedFourComponents(mode=mode, seed=3)
        assert est.fit_predict(g) == [0, 0, 0, -1, 0, 1, 1, 1, -1, 1]
        assert est.n_components_ == 2


def test_as_digraph_shapes():
    g = as_digraph([(0, 1), (1, 0)])
    assert g.n_live == 2 and g.m_live == 2
    g = as_digraph([(0, 1, 3), (1, 0, 1)])
    assert g.m_live == 4
    g = as_digraph((4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert g.n_live == 4
    marked = as_digraph((3, [(0, 1), (1, 2), (2, 0)]), ordinary=[0, 1])
    assert marked.ordinary_vertices() == [0, 1]
    with pytest.raises(Exception):
        as_digraph([])


def test_as_digraph_leaves_caller_graph_alone():
    g = gen_chain(2, 5, 1)
    kinds = list(g.kind)
    PreparedFourComponents(mode="exact").fit(g, ordinary=[0, 1, 2])
    assert g.kind == kinds
    marked = as_digraph(g, ordinary=[0, 1, 2])
    assert marked.ordinary_vertices() == [0, 1, 2] and g.kind == kinds


def test_as_digraph_rejects_non_integer_ids():
    for edges in ([("a", "b")], [(0.5, 1)], [(0, 1, 1.5)]):
        with pytest.raises(GraphError):
            as_digraph(edges)


def test_check_helpers():
    assert check_k(2) == 2
    with pytest.raises(ValueError):
        check_k(-1)
    with pytest.raises(ValueError):
        check_k(True)
    assert check_delta(0.5) == 0.5
    with pytest.raises(ValueError):
        check_delta(0.0)
