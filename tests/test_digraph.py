"""Graph data model: edge lists, counters, overlays and contraction."""

import copy
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kecc.digraph as dg
from kecc.digraph import (AUXILIARY, ORDINARY, Digraph, GraphError,
                          ReversalOverlay, contract,
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
    assert g.out[0] == g.inn[1] == eids
    assert g.out_deg[0] == g.in_deg[1] == 3
    assert g.in_deg[0] == g.out_deg[1] == 0
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
    assert all(len(g.out[v]) == 2 for v in range(4))
    check(g)


def test_delete_one_of_parallel():
    g = Digraph()
    g.add_vertices(2)
    eids = g.add_edge(0, 1, copies=3)
    g.delete_edge(eids[1])
    assert g.out[0] == g.inn[1] == [eids[0], eids[2]]
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
    # in-place contraction appends a merged member's lists after rep's
    g = Digraph()
    g.add_vertices(4)
    a = g.add_edge(1, 0, copies=2)
    b = g.add_edge(2, 0, copies=3)
    g.contract_lazy([1, 2], 1)
    assert g.out_edges(1) == a + b
    assert len(g.out[1]) == 5
    assert g.out[2] == []
    g2 = Digraph()
    g2.add_vertices(4)
    p = g2.add_edge(0, 2, copies=2)
    q = g2.add_edge(0, 3, copies=3)
    g2.contract_lazy([2, 3], 2)
    assert g2.in_edges(2) == p + q
    assert len(g2.inn[2]) == 5 and g2.inn[3] == []


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
    ov.reverse_path(path[::-1])  # the reversed walk, 0->3->2->1
    assert (out_of(g, s, ov), vol_of(g, s, ov)) == (1, 3)
    assert not any(ov.flip)
    assert not ov.dirty


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
            ov.reverse_path(walk[::-1])
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
    h, v_b = contract(g, b_side)
    assert len(h.out[v_b]) == 2
    assert len(h.inn[v_b]) == 2
    heads = sorted(h.head(e) for e in h.out_edges(v_b))
    assert heads == [0, 0]  # two parallel edges to a0
    check(h)


def test_contract_single_vertex():
    g = gen_kn(4)
    h, v_s = contract(g, {2})
    assert h.n_live == 4
    assert h.m_live == g.m_live
    assert not h.is_live(2) and h.is_live(v_s)


def test_contract_leaves_g_unchanged(rng):
    # the copy shares the set's lists with g only until contract_lazy
    # rebinds them: contracting, then deleting edges at every vertex of the
    # result, the contracted one included, changes nothing in g
    for _ in range(10):
        n = rng.randrange(4, 9)
        g = gen_random_kec(n, 2, rng.randrange(0, 2 * n), rng.randrange(10**6))
        before = copy.deepcopy(arrays(g))
        h, _z = contract(g, rng.sample(range(n), rng.randrange(1, n)))
        assert arrays(g) == before
        for v in h.vertices():
            for e in h.out[v][:1] + h.inn[v][:1]:
                if h.e_alive[e]:
                    h.delete_edge(e)
        assert arrays(g) == before


def test_contract_whole_graph_rejected():
    g = gen_cyc(3, 1)
    with pytest.raises(GraphError):
        contract(g, {0, 1, 2})


def test_contract_preserves_lambda_blocks():
    g = gen_blocks(5, 5, 2)
    h, _v_b = contract(g, set(range(5, 10)))
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
        h, _ = contract(g, members)
        for _ in range(6):
            u, v = rng.sample(outside, 2)
            for ell in range(k, k + 4):
                assert (lambda_oracle(g, u, v, ell) >= ell) == \
                       (lambda_oracle(h, u, v, ell) >= ell)
        done += 1


def counting_lists(g):
    """Wrap g's out_edges and in_edges so that every list entry read through
    them is counted; returns the one-element count list."""
    scanned = [0]

    def counted(edges):
        def wrapped(v):
            for e in edges(v):
                scanned[0] += 1
                yield e
        return wrapped

    g.out_edges = counted(g.out_edges)
    g.in_edges = counted(g.in_edges)
    return scanned


def test_contract_complement_reduced_blocks():
    # the complement (a 20-clique) is far larger than the 5-vertex side
    g = gen_blocks(5, 20, 2)
    a_side = set(range(5))
    vol = vol_of(g, a_side)
    scanned = counting_lists(g)
    h, vmap = contract_complement_reduced(g, a_side, 2)
    # O(vol): the out-lists are read once, vol entries, and the edges
    # leaving the set are counted in that pass; each member's in-list is
    # read up to k entries from outside, past entries from inside, which
    # number at most vol in all
    assert scanned[0] <= 2 * vol + 2 * len(a_side)
    vbar = len(vmap)
    a0 = vmap[0]
    copies = [e for e in h.out_edges(vbar)]
    assert len(copies) == 2
    assert all(h.head(e) == a0 for e in copies)
    assert h.kind[vbar] == AUXILIARY
    assert len(h.inn[vbar]) == 2
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
    h, vmap = contract_complement_reduced(g, {0, 1}, 2)
    into = {}
    for e in h.out_edges(len(vmap)):
        into[h.head(e)] = into.get(h.head(e), 0) + 1
    assert into == {vmap[0]: 2, vmap[1]: 1}


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
        h, vmap = contract_complement_reduced(g, members, k)
        for u in members:
            for v in members:
                if u != v:
                    cap = k + 2
                    assert lambda_oracle(g, u, v, cap) == \
                        lambda_oracle(h, vmap[u], vmap[v], cap)
        done += 1


def grouped_arcs(h, of):
    """Vertex kinds and arc multiset of materialize(h), with every vertex
    named by the set of original vertices that of maps to it."""
    mat, vmap = materialize(h)
    check(mat)
    names = {}
    for v, x in of.items():
        names.setdefault(vmap[x], set()).add(v)
    name = {x: frozenset(vs) for x, vs in names.items()}
    assert sorted(name) == mat.vertices()
    kinds = {name[x]: mat.kind[x] for x in name}
    return kinds, Counter((name[mat.tail(e)], name[mat.head(e)])
                          for e in mat.edges())


def test_lazy_contract_matches_eager(rng):
    # chains of up to three in-place contractions, where a later set may
    # hold an earlier representative, against the same chain of sequential
    # rebuilds by ref_contract
    reps_merged = 0
    for _ in range(40):
        n = rng.randrange(5, 10)
        g = random_digraph(rng, n, rng.randrange(6, 24))
        lazy, eager = g.copy(), g
        lazy_of = {v: v for v in range(n)}  # original -> lazy vertex
        eager_of = dict(lazy_of)  # original -> eager vertex
        reps = set()
        for _ in range(rng.randrange(1, 4)):
            live = lazy.vertices()
            if len(live) < 3:
                break
            members = set(rng.sample(live, rng.randrange(2, len(live))))
            rep = rng.choice(sorted(members))
            reps_merged += bool(reps & members)
            lazy.contract_lazy(members, rep)
            check(lazy)
            moved = [v for v in range(n) if lazy_of[v] in members]
            eager, v_s = ref_contract(eager, {eager_of[v] for v in moved})
            for v in moved:
                lazy_of[v] = rep
                eager_of[v] = v_s
            reps.add(rep)
        assert grouped_arcs(lazy, lazy_of) == grouped_arcs(eager, eager_of)
    assert reps_merged


# -- bulk builds against sequential add_edge ---------------------------------
#
# The ref_* builders are the add_vertex/add_edge forms of the whole-graph
# copies; every bulk build must match them array for array.

def ref_reversed(g):
    h = Digraph()
    for v in range(len(g.kind)):
        h.add_vertex(g.kind[v])
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


def ref_contract(g, members):
    memb = set(members)
    if not memb:
        raise GraphError("cannot contract an empty set")
    for u in memb:
        if not g.is_live(u):
            raise GraphError(f"vertex {u} is not live")
    if len(memb) == g.n_live:
        raise GraphError("cannot contract the whole vertex set")
    h = Digraph()
    for v in range(len(g.kind)):
        h.add_vertex(g.kind[v])
        if not g.v_alive[v] or v in memb:
            h.v_alive[v] = False
            h.n_live -= 1
    v_s = h.add_vertex(AUXILIARY)
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
    vbar = h.add_vertex(AUXILIARY)
    for u in sorted(memb):
        for e in g.out_edges(u):
            h.add_edge(vmap[u], vmap.get(g.head(e), vbar))
    for u in sorted(memb):
        rho = 0
        for e in g.in_edges(u):
            if g.tail(e) not in memb:
                rho += 1
                if rho == k:
                    break
        if rho:
            h.add_edge(vbar, vmap[u], copies=min(k, rho))
    return h, vmap, vbar


def complement_reduced(g, members, k):
    h, vmap = contract_complement_reduced(g, members, k)
    return h, vmap, len(vmap)


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
    kinds = [ORDINARY, AUXILIARY]
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
        g.contract_lazy(members, members[0])
    members = draw(st.lists(st.sampled_from(g.vertices()), min_size=1,
                            unique=True))
    return g, members


def contracted(fn, g, members):
    """The contracted vertex, survivors, kinds, counters and grouped arcs of
    fn(g, members), or the type and message of its error: equal for two
    contractions that differ only in edge ids and list order."""
    try:
        h, z = fn(g, members)
    except GraphError as exc:
        return type(exc), str(exc)
    check(h)
    of = {v: z if v in members else v for v in g.vertices()}
    return (z, h.vertices(), h.kind, h.n_live, h.m_live, h.n_slots(),
            grouped_arcs(h, of))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(built_graphs(), st.integers(0, 1))
def test_bulk_builds_match_add_edge(case, k_shift):
    # contract is a copy plus contract_lazy, not a bulk build, so it keeps
    # g's edge ids and is checked against ref_contract up to edge ids and
    # list order
    g, members = case
    check(g)
    before = fingerprint(g)
    assert outcome(materialize, g) == outcome(ref_materialize, g)
    assert contracted(contract, g, members) == contracted(ref_contract, g,
                                                          members)
    k = max(1, out_of(g, members)) + k_shift
    assert (outcome(complement_reduced, g, members, k)
            == outcome(ref_complement_reduced, g, members, k))
    assert fingerprint(g) == before


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(built_graphs())
def test_reverse_is_a_view(case):
    # the reverse shares g's arrays, kinds included, with tails and heads
    # exchanged; on the graphs materialize and
    # contract_complement_reduced build, whose edge ids run in tail order,
    # it equals the sequential build array for array, which keeps the
    # decomposition's pieces byte-stable
    g, members = case
    before = fingerprint(g)
    r = g.reversed()
    rr = r.reversed()
    assert r.kind is g.kind and rr.kind is g.kind
    assert (r.n_live, r.m_live) == (g.n_live, g.m_live)
    for v in g.vertices():
        assert list(r.succ(v)) == list(g.pred(v))
        assert list(r.pred(v)) == list(g.succ(v))
        assert list(rr.succ(v)) == list(g.succ(v))
        assert list(rr.pred(v)) == list(g.pred(v))
    assert fingerprint(g) == before
    built = [materialize(g)[0]]
    out = out_of(g, members)
    if out:
        built.append(contract_complement_reduced(g, members, out)[0])
    for h in built:
        assert arrays(h.reversed()) == arrays(ref_reversed(h))


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
