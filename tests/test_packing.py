"""Base packing and independent-cover tests against brute-force oracles."""

import random
import time
import tracemalloc
from itertools import combinations

import pytest

from generator import partition_almost_equal, small_matroid_family
from oracles import (
    brute_coverable,
    brute_max_disjoint_bases,
    reference_max_disjoint_bases,
    reference_pack_into_independent,
    reference_pack_k_bases,
)
from tvermat import (
    BasePacking,
    CoverCertificate,
    GraphicMatroid,
    InputError,
    PackingCertificate,
    PartitionMatroid,
    UniformMatroid,
    colourful_matroid,
    max_disjoint_bases,
    pack_into_independent,
    pack_k_bases,
)

TRIANGLE = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
K4 = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def complete_graph(n, seed=None):
    """K_n with its edges in lexicographic order, or shuffled by ``seed``."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if seed is not None:
        random.Random(seed).shuffle(edges)
    return GraphicMatroid(n, edges)


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


def test_k_past_the_ground_set_reaches_the_loops():
    # with k >= n parts every non-loop fits a part of its own, so the run ends
    # reaching the loops: pack_k_bases returns them without building a part
    kinds = set()
    for name, M in small_matroid_family():
        loops = frozenset(e for e in range(M.n) if M.rank([e]) == 0)
        for k in (M.n, M.n + 1, 3 * M.n):
            if k * M.rank() <= M.n:
                continue
            res = pack_k_bases(M, k)
            assert isinstance(res, PackingCertificate) and res.check(M)
            assert res.witness_set == loops == reference_pack_k_bases(M, k), (name, k)
            kinds.add(bool(loops))
    assert kinds == {False, True}  # matroids with and without loops
    for k in (2**20 + 1, 10**30):
        assert pack_k_bases(UniformMatroid(3, 9), k) == PackingCertificate(frozenset(), k)


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


def _same_bases(M):
    b, packing, cert = max_disjoint_bases(M)
    ref_b, ref_bases, ref_cert = reference_max_disjoint_bases(M)
    assert (b, packing.bases) == (ref_b, ref_bases), M
    assert (cert and cert.witness_set) == ref_cert, M


def _same_pack(M, k):
    res = pack_k_bases(M, k)
    got = res.witness_set if isinstance(res, PackingCertificate) else res.bases
    assert got == reference_pack_k_bases(M, k), (M, k)


def _same_cover(M, A, m):
    res = pack_into_independent(M, A, m)
    got = res.witness_set if isinstance(res, CoverCertificate) else res
    assert got == reference_pack_into_independent(M, A, m), (M, A, m)


def test_packing_matches_the_plain_bfs():
    # the state kept across augmentations and the open parts asked first
    # must leave every base, part and certificate set as the plain BFS has it
    for _, M in small_matroid_family():
        _same_bases(M)
        for k in (1, 2, 3):
            _same_pack(M, k)
        for m in (1, 2):
            _same_cover(M, range(M.n), m)
    for n in range(8, 17):
        _same_bases(complete_graph(n))
        _same_bases(complete_graph(n, seed=n))
    _same_bases(UniformMatroid(2, 33))
    _same_bases(UniformMatroid(3, 31))
    _same_pack(complete_graph(14), 7)
    K10 = complete_graph(10, seed=10)
    _same_cover(K10, range(45), 5)
    _same_cover(K10, range(0, 45, 2), 2)


def test_cover_builds_at_most_one_part_per_element():
    # min(m, |A|) parts: a non-loop finds an empty part among the first |A|
    # and no part takes a loop, so the parts and certificates of the plain
    # BFS with all m parts come out unchanged
    rng = random.Random(53)
    for _, M in small_matroid_family():
        A = [e for e in range(M.n) if rng.random() < 0.6]
        for m in range(max(len(A) - 2, 1), len(A) + 4):
            _same_cover(M, A, m)
    U = UniformMatroid(3, 9)
    assert pack_into_independent(U, (0, 1), 10**30) == [frozenset({0, 1})]
    loop = GraphicMatroid(2, [(0, 1), (1, 1)])
    assert pack_into_independent(loop, (0, 1), 10**9) == CoverCertificate(frozenset({1}), 10**9)


def _count_calls(monkeypatch, cls, name="fundamental_circuit"):
    calls = []
    method = getattr(cls, name)

    def counted(self, *args):
        calls.append(1)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_packing_circuit_queries_pinned(monkeypatch):
    # the plain BFS asks every full part before the one open part: 16,512
    # queries for U(2,256) and 6,714 for K16 with lexicographic edges
    calls = _count_calls(monkeypatch, UniformMatroid)
    b, _, _ = max_disjoint_bases(UniformMatroid(2, 256))
    assert b == 128 and len(calls) == 256  # one per augmentation
    calls = _count_calls(monkeypatch, GraphicMatroid)
    b, _, _ = max_disjoint_bases(complete_graph(16))
    assert b == 8 and len(calls) == 5347


def test_partition_packing_indep_calls_pinned(monkeypatch):
    # the generic circuit loop made 24,750 independence calls here
    calls = _count_calls(monkeypatch, PartitionMatroid, "_indep")
    b, _, _ = max_disjoint_bases(colourful_matroid(50, 3))
    assert b == 50 and len(calls) <= 50


def test_uniform_packing_is_linear():
    # the plain BFS is quadratic in n here: about 20 minutes at n = 2**16
    t0 = time.monotonic()
    b, packing, cert = max_disjoint_bases(UniformMatroid(2, 1 << 16))
    assert b == 1 << 15 and cert.k == b + 1
    assert time.monotonic() - t0 < 5.0


def test_packing_peak_stays_near_what_it_returns():
    # the run's covered map, log and part sets are released as the bases
    # are frozen, so the peak holds about one copy of the packing (13 MB
    # traced against 9.4 MB returned)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = max_disjoint_bases(UniformMatroid(2, 1 << 16))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[0] == 1 << 15
    assert peak - base <= 1.6 * (held - base)


class _OverfullGraphic(GraphicMatroid):
    """A broken circuit oracle: it claims every edge fits into every forest."""

    def fundamental_circuit(self, part, x):
        return None


class _OverfullUniform(UniformMatroid):
    """A broken circuit oracle: it claims every element fits into every part,
    even into a part that is already a basis."""

    def fundamental_circuit(self, part, x):
        return None


def test_builders_refuse_a_family_from_a_broken_oracle():
    # edges 0 and 1 are parallel: the open part that takes both is dependent,
    # and the builder's own _check_family on the family it returns must fire
    M = _OverfullGraphic(3, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(RuntimeError, match="dependent"):
        max_disjoint_bases(M)
    with pytest.raises(RuntimeError, match="dependent"):
        pack_k_bases(M, 1)
    with pytest.raises(RuntimeError, match="dependent"):
        pack_into_independent(M, range(3), 2)
    # a basis that accepts an element is an oracle fault, caught when the
    # full parts are asked for their circuits
    with pytest.raises(RuntimeError, match="into basis"):
        pack_into_independent(_OverfullUniform(2, 6), range(6), 2)
