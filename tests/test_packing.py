"""Base packing and independent-cover tests against brute-force oracles."""

from itertools import combinations

import pytest

from generator import small_matroid_family
from oracles import brute_coverable, brute_max_disjoint_bases
from tvermat import (
    BasePacking,
    CoverCertificate,
    GraphicMatroid,
    InputError,
    PackingCertificate,
    UniformMatroid,
    colourful_matroid,
    max_disjoint_bases,
    pack_into_independent,
    pack_k_bases,
    partition_almost_equal,
)

TRIANGLE = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
K4 = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_pack_singletons():
    res = pack_k_bases(UniformMatroid(1, 5), 5)
    assert isinstance(res, BasePacking)
    assert sorted(sorted(b) for b in res.bases) == [[0], [1], [2], [3], [4]]


def test_pack_k4_two_trees():
    res = pack_k_bases(K4, 2)
    assert isinstance(res, BasePacking)
    t1, t2 = res.bases
    assert len(t1) == len(t2) == 3 and not (t1 & t2)
    assert K4.is_independent(t1) and K4.is_independent(t2)


def test_pack_triangle_certificate_empty():
    res = pack_k_bases(TRIANGLE, 2)
    assert isinstance(res, PackingCertificate)
    # k*rank(empty) + |E| = 3 < 4 = k*rank(E)
    assert res.witness_set == frozenset()
    assert res.check(TRIANGLE)


def test_max_disjoint_bases_uniform_grid():
    for d in range(3):
        for n in range(d + 1, 10):
            M = UniformMatroid(d + 1, n)
            b, packing, cert = max_disjoint_bases(M)
            assert b == n // (d + 1)
            assert b == brute_max_disjoint_bases(M)
            assert len(packing.bases) == b and packing.check()
            assert cert.k == b + 1 and cert.check(M)


def test_max_disjoint_bases_k4():
    b, packing, cert = max_disjoint_bases(K4)
    assert b == 2 == brute_max_disjoint_bases(K4)
    assert cert.check(K4)


def test_rank_zero_degenerate():
    M = GraphicMatroid(2, [(0, 0), (1, 1)])
    b, packing, cert = max_disjoint_bases(M)
    assert b == 0 and packing.bases == [] and cert is None


def test_graphic_packing_oracle_calls_bounded(monkeypatch):
    # forest-path circuits make the run itself oracle-free: the 8 calls here
    # check the finished packing; testing each exchange arc with the oracle
    # needs about 97,000
    K16 = GraphicMatroid(16, [(u, v) for u in range(16) for v in range(u + 1, 16)])
    calls = []
    indep = GraphicMatroid._indep

    def counted(self, ids):
        calls.append(1)
        return indep(self, ids)

    monkeypatch.setattr(GraphicMatroid, "_indep", counted)
    b, packing, cert = max_disjoint_bases(K16)
    assert b == 8 and cert.check(K16)
    assert len(calls) < 100, len(calls)


def test_uniform_packing_oracle_calls_bounded(monkeypatch):
    # the finished packing is checked once, one call per base (80 here);
    # re-checking the grown family after every augmentation made 6,560 calls,
    # and restarting the run for every k 13,040
    calls = []
    indep = UniformMatroid._indep

    def counted(self, ids):
        calls.append(1)
        return indep(self, ids)

    monkeypatch.setattr(UniformMatroid, "_indep", counted)
    M = UniformMatroid(2, 160)
    b, packing, cert = max_disjoint_bases(M)
    assert b == 80 and cert.k == 81 and cert.check(M)
    assert len(calls) < 200, len(calls)


def test_colourful_b_equals_r():
    for r in range(1, 5):
        for d in range(1, 4):
            b, _, _ = max_disjoint_bases(colourful_matroid(r, d))
            assert b == r


def test_generator_completeness_vs_brute():
    # spot-check here; the full sweep is an acceptance criterion
    fam = [(n, M) for n, M in small_matroid_family(explicit_count=10) if M.n <= 6]
    for name, M in fam:
        b, packing, cert = max_disjoint_bases(M)
        assert b == brute_max_disjoint_bases(M), name
        if cert is not None:
            assert cert.check(M)


def test_pack_into_independent_basic():
    M = UniformMatroid(2, 4)
    cover = pack_into_independent(M, (0, 1), 1)
    assert cover == [frozenset({0, 1})]

    res = pack_into_independent(TRIANGLE, (0, 1, 2), 1)
    assert isinstance(res, CoverCertificate)
    assert res.m * TRIANGLE.rank(res.witness_set) < len(res.witness_set)

    cover = pack_into_independent(TRIANGLE, (0, 1, 2), 2)
    assert isinstance(cover, list)
    assert sorted(len(p) for p in cover) == [1, 2]
    assert frozenset().union(*cover) == frozenset({0, 1, 2})
    for part in cover:
        assert TRIANGLE.is_independent(part)


def test_pack_into_independent_empty_set():
    assert pack_into_independent(TRIANGLE, (), 1) == []


def test_cover_duality_exhaustive():
    mats = [TRIANGLE, UniformMatroid(2, 5), K4,
            GraphicMatroid(3, [(0, 1), (1, 2), (0, 2), (1, 1)])]
    for M in mats:
        ground = range(min(M.n, 6))
        for k in range(len(list(ground)) + 1):
            for A in combinations(ground, k):
                for m in (1, 2, 3):
                    res = pack_into_independent(M, A, m)
                    feasible = isinstance(res, list)
                    assert feasible == brute_coverable(M, A, m), (M, A, m)
                    if feasible:
                        assert frozenset().union(frozenset(), *res) == frozenset(A)
                        seen = set()
                        for part in res:
                            assert M.is_independent(part)
                            assert not (seen & part)
                            seen |= part
                    else:
                        assert res.check(M)


def test_partition_almost_equal():
    assert [len(p) for p in partition_almost_equal(7, 3)] == [3, 2, 2]
    assert [len(p) for p in partition_almost_equal(4, 2)] == [2, 2]
    assert [len(p) for p in partition_almost_equal(2, 5)] == [1, 1, 0, 0, 0]
    parts = partition_almost_equal(9, 4)
    flat = [i for p in parts for i in p]
    assert sorted(flat) == list(range(1, 10))
    lo, hi = 9 // 4, -(-9 // 4)
    assert all(lo <= len(p) <= hi for p in parts)
    with pytest.raises(InputError):
        partition_almost_equal(3, 0)


class _OverfullUniform(UniformMatroid):
    """A broken circuit oracle: it claims every element fits into every part,
    even into a part that is already a basis."""

    def fundamental_circuit(self, part, x):
        return None


def test_builders_refuse_a_family_from_a_broken_oracle():
    # the only check left on the packing path is the builder's own
    # _check_family on the family it returns: it must fire
    M = _OverfullUniform(2, 6)
    with pytest.raises(RuntimeError):
        max_disjoint_bases(M)
    with pytest.raises(RuntimeError):
        pack_k_bases(M, 2)
    with pytest.raises(RuntimeError):
        pack_into_independent(M, range(6), 2)
