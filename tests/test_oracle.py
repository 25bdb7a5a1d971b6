"""Self-checks of the brute-force ground truth."""

import pytest

from kecc.gen import gen_blocks, gen_cyc, gen_kn
from kecc.oracle import (BOTTOM, all_pairs_lambda, ecc_components,
                         enumerate_separators, lambda_oracle, latest_oracle,
                         mset_oracle, mutually_connected, verify_partition)

from conftest import one_block, random_strongly_connected, singletons


def test_all_pairs_fixtures():
    table = all_pairs_lambda(gen_cyc(4, 2), 5)
    assert set(table.values()) == {2}
    table = all_pairs_lambda(gen_kn(4), 5)
    assert set(table.values()) == {3}
    table = all_pairs_lambda(gen_blocks(5, 5, 2), 5)
    assert table[(1, 6)] == 2 and table[(6, 1)] == 2
    assert table[(0, 1)] == 4  # capped by in-degree(a1): B-routes re-enter at a0


def test_ecc_components_fixtures():
    assert ecc_components(gen_kn(5), 4).n_blocks == 1
    assert ecc_components(gen_cyc(6, 1), 2).n_blocks == 6
    assert ecc_components(gen_blocks(6, 6, 2), 4).blocks() == \
        [list(range(6)), list(range(6, 12))]
    with pytest.raises(ValueError):
        ecc_components(gen_kn(3), 0)


def test_equivalence_relation(rng):
    # mutual c-connectivity is transitive, so pivot classes are consistent
    for _ in range(10):
        g = random_strongly_connected(rng, rng.randrange(3, 8),
                                      rng.randrange(0, 10))
        for c in (1, 2, 3):
            part = ecc_components(g, c)
            verts = sorted(g.vertices())
            for u in verts:
                for v in verts:
                    if u != v:
                        assert part.same_block(u, v) == \
                            mutually_connected(g, u, v, c)


def test_mset_fixtures():
    assert mset_oracle(gen_kn(5), 1, 0, 4) == {1}
    assert mset_oracle(gen_kn(4), 1, 0, 2, check=True) is BOTTOM
    assert mset_oracle(gen_blocks(5, 5, 2), 6, 1, 2) == {5, 6, 7, 8, 9}
    with pytest.raises(ValueError):
        mset_oracle(gen_cyc(4, 1), 1, 0, 2)  # lambda below the request


def test_enumerate_fixture_and_bounds(rng):
    g = gen_cyc(4, 1)
    seps = enumerate_separators(g, 1, 0, 1)
    assert sorted(sorted(x) for x in seps) == [[1], [1, 2], [1, 2, 3]]
    for _ in range(20):
        h = random_strongly_connected(rng, rng.randrange(3, 7),
                                      rng.randrange(0, 8))
        v, s = rng.sample(range(h.n_live), 2)
        lam = lambda_oracle(h, v, s, 9)
        seps = enumerate_separators(h, v, s, lam)
        minimal = mset_oracle(h, v, s, lam)
        latest = latest_oracle(h, v, s)
        for sep in seps:
            assert minimal <= sep <= latest


def test_enumerate_guard():
    import kecc.oracle as o
    g = random_strongly_connected(__import__("random").Random(1), 21, 5)
    with pytest.raises(ValueError):
        enumerate_separators(g, 0, 1, 1)


def test_verify_partition_reports():
    g = gen_blocks(5, 5, 2)
    truth = ecc_components(g, 4)
    assert verify_partition(g, truth, 4).ok
    singles = singletons(sorted(g.vertices()))
    rep = verify_partition(g, singles, 4)
    assert not rep.ok and rep.false_separations and not rep.missed_separations
    lump = one_block(sorted(g.vertices()))
    rep = verify_partition(g, lump, 4)
    assert rep.ok  # one-sided: merging is not a false separation
    assert (0, 5) in rep.missed_separations or (5, 0) in rep.missed_separations
