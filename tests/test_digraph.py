"""Graph data model: rings, counters, overlays and contraction."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kecc.digraph as dg
from kecc.digraph import (AUX_KIN, AUX_KOUT, AUX_OTHER, ORDINARY, Digraph,
                          DisjointSets, GraphError, ReversalOverlay, contract,
                          contract_complement_reduced, from_arcs, materialize,
                          out_of, vol_of)
from kecc.gen import (gen_blocks, gen_chain, gen_cyc, gen_kn, gen_random_kec,
                      sub_rng)
from kecc.oracle import lambda_oracle

from conftest import arrays, check, fingerprint, random_digraph, random_walk


def test_parallel_edges():
    g = Digraph()
    g.add_vertices(2)
    eids = g.add_edge(0, 1, copies=3)
    assert len(eids) == 3
    assert g.out_deg[0] == 3
    assert g.in_deg[1] == 3
    assert g.m_live == 3
    check(g)


def test_add_edge_rejections():
    g = Digraph()
    g.add_vertices(2)
    with pytest.raises(GraphError):
        g.add_edge(0, 0)
    with pytest.raises(GraphError):
        g.add_edge(0, 5)
    g.v_alive[1] = False
    g.n_live -= 1
    with pytest.raises(GraphError):
        g.add_edge(0, 1)


def test_edge_limit(monkeypatch):
    monkeypatch.setattr(dg, "MAX_EDGES", 4)
    g = Digraph()
    g.add_vertices(2)
    g.add_edge(0, 1, copies=4)
    with pytest.raises(GraphError):
        g.add_edge(1, 0)


def test_cyc_generator_shape():
    g = gen_cyc(4, 2)
    assert g.m_live == 8
    assert all(g.out_deg[v] == 2 for v in range(4))
    check(g)


def test_delete_one_of_parallel():
    g = Digraph()
    g.add_vertices(2)
    eids = g.add_edge(0, 1, copies=3)
    g.delete_edge(eids[1])
    assert g.out_deg[0] == 2
    with pytest.raises(GraphError):
        g.delete_edge(eids[1])
    check(g)


def test_delete_all_edges():
    g = gen_cyc(3, 1)
    for e in list(g.edges()):
        g.delete_edge(e)
    assert g.m_live == 0
    check(g)


def test_merge_rings_preserves_order():
    g = Digraph()
    g.add_vertices(4)
    a = g.add_edge(1, 0, copies=2)
    b = g.add_edge(2, 0, copies=3)
    g.merge_out_rings(2, 1)
    assert list(g.out_edges(1)) == a + b
    assert g.out_deg[1] == 5
    assert g.out_deg[2] == 0
    g2 = Digraph()
    g2.add_vertices(4)
    p = g2.add_edge(0, 2, copies=2)
    q = g2.add_edge(0, 3, copies=3)
    g2.merge_in_rings(3, 2)
    assert list(g2.in_edges(2)) == p + q
    assert g2.in_deg[2] == 5 and g2.in_deg[3] == 0


def test_out_and_vol_fixtures():
    g = gen_cyc(4, 1)
    assert out_of(g, {1, 2}) == 1
    assert vol_of(g, {1, 2}) == 2
    g2 = gen_cyc(4, 2)
    assert out_of(g2, {1}) == 2
    assert vol_of(g2, {1}) == 2
    k4 = gen_kn(4)
    assert out_of(k4, {0, 1}) == 4
    assert vol_of(k4, {0, 1}) == 6


def test_reverse_path_cycle_fixture():
    g = gen_cyc(4, 1)
    ov = ReversalOverlay(g)
    path = [next(iter(g.out_edges(v))) for v in (1, 2, 3)]  # 1->2->3->0
    s = {1, 2, 3}
    assert (out_of(g, s, ov), vol_of(g, s, ov)) == (1, 3)
    ov.reverse_path(path)
    assert (out_of(g, s, ov), vol_of(g, s, ov)) == (0, 2)
    ov.rewind(0)
    assert (out_of(g, s, ov), vol_of(g, s, ov)) == (1, 3)


def test_reverse_path_ending_inside():
    g = gen_cyc(4, 1)
    ov = ReversalOverlay(g)
    s = {1, 2, 3}
    ov.reverse_path([next(iter(g.out_edges(1)))])  # 1->2, ends inside
    assert (out_of(g, s, ov), vol_of(g, s, ov)) == (1, 3)


def test_reverse_path_validation():
    g = gen_cyc(4, 1)
    ov = ReversalOverlay(g)
    e10 = next(iter(g.out_edges(1)))
    e32 = next(iter(g.out_edges(3)))
    with pytest.raises(GraphError):
        ov.reverse_path([e10, e32])  # not contiguous
    with pytest.raises(GraphError):
        ov.reverse_path([e10, e10])  # repeated edge


def test_reverse_undo_randomized(rng):
    for _ in range(50):
        g = random_digraph(rng, rng.randrange(3, 8), rng.randrange(4, 16))
        base = fingerprint(g)
        members = set(rng.sample(range(g.n_slots()),
                                 rng.randrange(1, g.n_slots())))
        ov = ReversalOverlay(g)
        before = (out_of(g, members, ov), vol_of(g, members, ov))
        start = rng.choice(sorted(members))
        walk = random_walk(g, ov, rng, start)
        if walk:
            ov.reverse_path(walk)
        ov.rewind(0)
        assert (out_of(g, members, ov), vol_of(g, members, ov)) == before
        assert not any(ov.flip)
        assert not ov.dirty
        assert fingerprint(g) == base


def test_ring_census_random_ops(rng):
    g = Digraph()
    g.add_vertices(12)
    live_edges = []
    for step in range(10_000):
        op = rng.random()
        if op < 0.62 or not live_edges:
            u = rng.randrange(12)
            v = rng.randrange(12)
            if u != v:
                live_edges.extend(g.add_edge(u, v, rng.randrange(1, 3)))
        else:
            e = live_edges.pop(rng.randrange(len(live_edges)))
            g.delete_edge(e)
        if step % 997 == 0:
            check(g)
    check(g)


def test_contract_blocks_fixture():
    g = gen_blocks(5, 5, 2)
    b_side = set(range(5, 10))
    h, v_b = contract(g, b_side, kind=AUX_KOUT)
    assert h.out_deg[v_b] == 2
    assert h.in_deg[v_b] == 2
    heads = sorted(h.head(e) for e in h.out_edges(v_b))
    assert heads == [0, 0]  # two parallel edges to a0
    check(h)


def test_contract_single_vertex():
    g = gen_kn(4)
    h, v_s = contract(g, {2})
    assert h.n_live == 4
    assert h.m_live == g.m_live
    assert not h.is_live(2) and h.is_live(v_s)


def test_contract_whole_graph_rejected():
    g = gen_cyc(3, 1)
    with pytest.raises(GraphError):
        contract(g, {0, 1, 2})


def test_contract_preserves_lambda_blocks():
    g = gen_blocks(5, 5, 2)
    h, _v_b = contract(g, set(range(5, 10)), kind=AUX_KOUT)
    for u, v in [(0, 1), (2, 3), (1, 4)]:
        for ell in (2, 3, 4, 5):
            before = lambda_oracle(g, u, v, ell)
            after = lambda_oracle(h, u, v, ell)
            assert (before >= ell) == (after >= ell)


def test_contract_preserves_connectivity_random(rng):
    # contraction of a k-out set keeps l-connectivity of outside pairs,
    # for every l between k and k+3
    done = 0
    while done < 12:
        n = rng.randrange(5, 9)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, 2 * n), rng.randrange(10**6))
        members = set(rng.sample(range(n), rng.randrange(1, n - 1)))
        if out_of(g, members) != k:
            continue
        outside = [u for u in range(n) if u not in members]
        if len(outside) < 2:
            continue
        h, _ = contract(g, members, kind=AUX_KOUT)
        for _ in range(6):
            u, v = rng.sample(outside, 2)
            for ell in range(k, k + 4):
                assert (lambda_oracle(g, u, v, ell) >= ell) == \
                       (lambda_oracle(h, u, v, ell) >= ell)
        done += 1


def test_contract_complement_reduced_blocks():
    g = gen_blocks(5, 5, 2)
    a_side = set(range(5))
    red = contract_complement_reduced(g, a_side, 2)
    h = red.graph
    a0 = red.vmap[0]
    copies = [e for e in h.out_edges(red.vbar)]
    assert len(copies) == 2
    assert all(h.head(e) == a0 for e in copies)
    assert h.kind[red.vbar] == AUX_KIN
    assert h.in_deg[red.vbar] == 2
    assert red.touches <= 2 * vol_of(g, a_side) + 2 * len(a_side)
    check(h)


def test_contract_complement_reduction_rule():
    # synthetic: rho entering edges from outside are capped at min(k, rho)
    g = Digraph()
    g.add_vertices(4)  # 0,1 inside; 2,3 outside
    g.add_edge(0, 1)
    g.add_edge(1, 0)
    g.add_edge(0, 2, copies=2)   # the cut, k=2
    g.add_edge(2, 0, copies=5)   # rho=5 -> keep 2
    g.add_edge(3, 1, copies=1)   # rho=1 -> keep 1
    g.add_edge(2, 3, copies=2)
    g.add_edge(3, 2, copies=2)
    red = contract_complement_reduced(g, {0, 1}, 2)
    h = red.graph
    into = {}
    for e in h.out_edges(red.vbar):
        into[h.head(e)] = into.get(h.head(e), 0) + 1
    assert into == {red.vmap[0]: 2, red.vmap[1]: 1}


def test_contract_complement_requires_kout():
    g = gen_blocks(5, 5, 2)
    with pytest.raises(GraphError):
        contract_complement_reduced(g, set(range(5)), 3)


def test_contract_complement_preserves_inner_lambda(rng):
    # pairwise bounded connectivity up to k+2 among kept vertices survives
    done = 0
    while done < 8:
        n = rng.randrange(5, 9)
        k = rng.randrange(1, 3)
        g = gen_random_kec(n, k, rng.randrange(0, n), rng.randrange(10**6))
        members = set(rng.sample(range(n), rng.randrange(2, n - 1)))
        if out_of(g, members) != k:
            continue
        red = contract_complement_reduced(g, members, k)
        for u in members:
            for v in members:
                if u != v:
                    cap = k + 2
                    assert lambda_oracle(g, u, v, cap) == \
                        lambda_oracle(red.graph, red.vmap[u], red.vmap[v], cap)
        done += 1


def test_lazy_contract_matches_eager(rng):
    for _ in range(20):
        n = rng.randrange(4, 9)
        g = random_digraph(rng, n, rng.randrange(6, 18))
        members = set(rng.sample(range(n), rng.randrange(2, n)))
        eager, v_s = contract(g, members, kind=AUX_KOUT)
        lazy = g.copy()
        rep = min(members)
        lazy.contract_lazy(members, rep, kind=AUX_KOUT)
        check(lazy)
        mat, vmap = materialize(lazy)
        eager_mat, emap = materialize(eager)
        trans = {}
        for old in g.vertices():
            a = emap[v_s if old in members else old]
            b = vmap[rep if old in members else old]
            trans[b] = a
        arcs_lazy = {}
        for e in mat.edges():
            key = (trans[mat.tail(e)], trans[mat.head(e)])
            arcs_lazy[key] = arcs_lazy.get(key, 0) + 1
        arcs_eager = {}
        for e in eager_mat.edges():
            key = (eager_mat.tail(e), eager_mat.head(e))
            arcs_eager[key] = arcs_eager.get(key, 0) + 1
        assert arcs_lazy == arcs_eager


def test_dsu_representative_override():
    d = DisjointSets(8)
    d.unite(3, 5)
    assert d.find(5) == 3
    assert d.find(3) == 3
    d.unite(7, 3)
    assert d.find(5) == 7
    assert d.find(1) == 1


def test_dsu_chain():
    d = DisjointSets(10)
    for v in range(1, 10):
        d.unite(0, v)
    assert all(d.find(v) == 0 for v in range(10))


# -- bulk builds against sequential add_edge ---------------------------------
#
# The ref_* builders are the add_vertex/add_edge forms of the whole-graph
# copies; every bulk build must match them array for array.

def ref_reversed(g):
    if g.dsu is not None:
        raise GraphError("reverse a materialized graph, not a lazy one")
    swap = {AUX_KOUT: AUX_KIN, AUX_KIN: AUX_KOUT}
    h = Digraph()
    for v in range(len(g.kind)):
        h.add_vertex(swap.get(g.kind[v], g.kind[v]))
        h.v_alive[v] = g.v_alive[v]
        if not g.v_alive[v]:
            h.n_live -= 1
    for v in g.vertices():
        for e in g.out_edges(v):
            h.add_edge(g.e_head[e], v)
    return h


def ref_materialize(g):
    h = Digraph()
    vmap = {}
    for v in g.vertices():
        vmap[v] = h.add_vertex(g.kind[v])
    for v in g.vertices():
        for e in g.out_edges(v):
            h.add_edge(vmap[v], vmap[g.head(e)])
    return h, vmap


def ref_contract(g, members, kind=None):
    memb = set(members)
    if not memb:
        raise GraphError("cannot contract an empty set")
    for u in memb:
        if not g.is_live(u):
            raise GraphError(f"vertex {u} is not live")
    if len(memb) == g.n_live:
        raise GraphError("cannot contract the whole vertex set")
    if kind is None:
        kind = AUX_KOUT if out_of(g, memb) >= 1 else AUX_OTHER
    h = Digraph()
    for v in range(len(g.kind)):
        h.add_vertex(g.kind[v])
        if not g.v_alive[v] or v in memb:
            h.v_alive[v] = False
            h.n_live -= 1
    v_s = h.add_vertex(kind)
    for v in g.vertices():
        for e in g.out_edges(v):
            t, hd = g.ends(e)
            t2 = v_s if t in memb else t
            h2 = v_s if hd in memb else hd
            if t2 != h2:
                h.add_edge(t2, h2)
    return h, v_s


def ref_complement_reduced(g, members, k):
    memb = set(members)
    out = out_of(g, memb)
    if out != k:
        raise GraphError(f"expected a {k}-out set, found out={out}")
    h = Digraph()
    vmap = {u: h.add_vertex(g.kind[u]) for u in sorted(memb)}
    vbar = h.add_vertex(AUX_KIN)
    touches = 0
    for u in sorted(memb):
        for e in g.out_edges(u):
            touches += 1
            h.add_edge(vmap[u], vmap.get(g.head(e), vbar))
    for u in sorted(memb):
        rho = 0
        for e in g.in_edges(u):
            touches += 1
            if g.tail(e) not in memb:
                rho += 1
                if rho == k:
                    break
        if rho:
            h.add_edge(vbar, vmap[u], copies=min(k, rho))
    return h, vmap, vbar, touches


def complement_reduced(g, members, k):
    red = contract_complement_reduced(g, members, k)
    return red.graph, red.vmap, red.vbar, red.touches


def ref_from_arcs(n, arcs):
    g = Digraph()
    g.add_vertices(n)
    for u, v, mult in arcs:
        g.add_edge(u, v, copies=mult)
    return g


def outcome(fn, *args):
    """fn's result with every graph in it replaced by its arrays (checked
    for consistency first), or the type and message of its error."""
    try:
        out = fn(*args)
    except GraphError as exc:
        return type(exc), str(exc)
    out = out if isinstance(out, tuple) else (out,)
    for x in out:
        if isinstance(x, Digraph):
            check(x)
    return tuple(arrays(x) if isinstance(x, Digraph) else x for x in out)


@st.composite
def built_graphs(draw):
    """A multigraph with parallel edges, deleted edges, dead vertices and
    lazily contracted vertex sets, plus a non-empty vertex set."""
    n = draw(st.integers(2, 8))
    kinds = [ORDINARY, AUX_KOUT, AUX_KIN, AUX_OTHER]
    g = Digraph()
    for _ in range(n):
        g.add_vertex(draw(st.sampled_from(kinds)))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1),
                                   st.integers(1, 3)).filter(
        lambda a: a[0] != a[1]), max_size=25))
    for u, v, mult in arcs:
        g.add_edge(u, v, copies=mult)
    if g.m_slots():
        for e in draw(st.sets(st.integers(0, g.m_slots() - 1), max_size=8)):
            g.delete_edge(e)
    for v in draw(st.sets(st.integers(0, n - 1), max_size=n - 2)):
        for e in list(g.out_edges(v)) + list(g.in_edges(v)):
            if g.e_alive[e]:
                g.delete_edge(e)
        g.v_alive[v] = False
        g.n_live -= 1
    for _ in range(draw(st.integers(0, 2))):
        live = g.vertices()
        if len(live) < 3:
            break
        members = draw(st.lists(st.sampled_from(live), min_size=1,
                                max_size=len(live) - 2, unique=True))
        g.contract_lazy(members, members[0],
                        kind=draw(st.sampled_from(kinds)))
    members = draw(st.lists(st.sampled_from(g.vertices()), min_size=1,
                            unique=True))
    return g, members


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(built_graphs(), st.sampled_from([None, AUX_KOUT, AUX_OTHER]),
       st.integers(0, 1))
def test_bulk_builds_match_add_edge(case, kind, k_shift):
    g, members = case
    before = fingerprint(g)
    assert outcome(g.reversed) == outcome(ref_reversed, g)
    assert outcome(materialize, g) == outcome(ref_materialize, g)
    assert (outcome(contract, g, members, kind)
            == outcome(ref_contract, g, members, kind))
    k = max(1, out_of(g, members)) + k_shift
    assert (outcome(complement_reduced, g, members, k)
            == outcome(ref_complement_reduced, g, members, k))
    assert fingerprint(g) == before


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6), st.lists(st.tuples(st.integers(-1, 6),
                                              st.integers(-1, 6),
                                              st.integers(-1, 3)),
                                    max_size=12),
       st.integers(0, 30))
def test_from_arcs_matches_add_edge(n, arcs, limit):
    # bad ids, self-loops, bad multiplicities and the edge limit must raise
    # the error that the first failing add_edge call raises
    with mock.patch.object(dg, "MAX_EDGES", limit):
        assert outcome(from_arcs, n, arcs) == outcome(ref_from_arcs, n, arcs)


def ref_gen_random_kec(n, k, extra, seed):
    rng = sub_rng(seed, "random-kec")
    g = Digraph()
    g.add_vertices(n)
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            g.add_edge(perm[i], perm[(i + 1) % n])
    added = 0
    while added < extra:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
            added += 1
    return g


def test_generators_match_add_edge():
    for seed in range(4):
        assert (arrays(gen_random_kec(40, 2, 120, seed))
                == arrays(ref_gen_random_kec(40, 2, 120, seed)))
    blocks = [(u, v) for u in range(4) for v in range(4) if u != v]
    chain = ref_from_arcs(12, [(b * 4 + u, b * 4 + v, 1)
                               for b in range(3) for u, v in blocks]
                          + [arc for b in range(3)
                             for arc in ((b * 4, (b + 1) % 3 * 4, 2),
                                         ((b + 1) % 3 * 4, b * 4, 2))])
    assert arrays(gen_chain(3, 4, 2)) == arrays(chain)
    assert arrays(gen_cyc(5, 3)) == arrays(ref_from_arcs(
        5, [(v, (v + 1) % 5, 3) for v in range(5)]))
    assert arrays(gen_kn(4)) == arrays(ref_from_arcs(
        4, [(u, v, 1) for u, v in blocks]))
    assert arrays(gen_blocks(3, 2, 2)) == arrays(ref_from_arcs(
        5, [(u, v, 1) for u in range(3) for v in range(3) if u != v]
        + [(3, 4, 1), (4, 3, 1), (0, 3, 2), (3, 0, 2)]))
