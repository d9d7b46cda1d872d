"""Homology tests: boundary structure, Betti numbers vs an independent SNF
oracle, and the connectivity verifiers."""

import random
from itertools import combinations

import pytest

from oracles import snf_betti
from tvermat import (
    GraphicMatroid,
    HypothesisViolation,
    UniformMatroid,
    as_complex,
    betti_reduced,
    boundary_matrix,
    chessboard,
    colourful_matroid,
    conjecture_scan,
    from_facets,
    full_simplex,
    homologically_connected,
    verify_claim,
    verify_corollary,
)
from tvermat.homology import _rank_sparse_exact, _rank_sparse_mod_p

K4 = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_boundary_single_edge():
    X = from_facets([(0, 1)])
    d1 = boundary_matrix(X, 1)
    # boundary of [v0, v1] is v1 - v0: two entries, signs -1 and +1
    assert d1.cols == [[(0, -1), (1, 1)]]


def _compose(a, b):
    """The columns of a @ b for column-major sparse matrices a and b."""
    out = []
    for col in b.cols:
        acc = {}
        for r, v in col:
            for rr, vv in a.cols[r]:
                acc[rr] = acc.get(rr, 0) + v * vv
        out.append([(r, v) for r, v in sorted(acc.items()) if v])
    return out


def test_boundary_composition_zero():
    samples = [full_simplex(3), chessboard(3, 4), as_complex(K4, 2),
               chessboard(2, 3)]
    for X in samples:
        top = X.dimension
        for i in range(1, top):
            prod = _compose(boundary_matrix(X, i), boundary_matrix(X, i + 1))
            assert all(col == [] for col in prod)


def test_rank_of_cycle_boundary():
    c23 = chessboard(2, 3)  # 6-cycle
    d1 = boundary_matrix(c23, 1)
    assert len(_rank_sparse_exact([dict(col) for col in d1.cols])) == 5
    assert len(_rank_sparse_mod_p([dict(col) for col in d1.cols], (1 << 31) - 1)) == 5


def test_betti_examples():
    assert betti_reduced(chessboard(2, 2), 1).betti == (1, 0)
    assert betti_reduced(chessboard(2, 3), 1).betti == (0, 1)
    assert betti_reduced(chessboard(3, 4), 2).betti == (0, 2, 1)


def test_betti_exact_only_path_agrees():
    c34 = chessboard(3, 4)
    assert betti_reduced(c34, 2, exact_only=True).betti == (0, 2, 1)


def test_betti_vs_snf_oracle_random():
    rng = random.Random(1234)
    for trial in range(25):
        n = rng.randint(3, 8)
        nf = rng.randint(1, 5)
        facets = []
        for _ in range(nf):
            size = rng.randint(1, min(4, n))
            facets.append(tuple(sorted(rng.sample(range(n), size))))
        X = from_facets(facets)
        top = X.dimension
        up_to = max(top, 0)
        ours = betti_reduced(X, up_to).betti
        oracle = snf_betti(X.faces_by_dim, up_to)
        assert ours == oracle, (facets, ours, oracle)


def test_cleared_ranks_vs_exact_and_snf_random():
    # unions of simplex boundaries (spheres of dimension 1..3) plus loose
    # faces: homology in several degrees, so clearing acts across several maps
    rng = random.Random(2026)
    multi = 0
    for trial in range(30):
        n = rng.randint(7, 10)
        facets = []
        for k in [rng.randint(4, 5)] + [rng.randint(3, 5) for _ in range(rng.randint(1, 3))]:
            facets += combinations(sorted(rng.sample(range(n), k)), k - 1)
        for _ in range(rng.randint(0, 4)):
            facets.append(tuple(sorted(rng.sample(range(n), rng.randint(1, 4)))))
        X = from_facets(facets)
        d = X.dimension
        assert d in (2, 3)
        ours = betti_reduced(X, d).betti
        assert ours == betti_reduced(X, d, exact_only=True).betti, facets
        assert ours == snf_betti(X.faces_by_dim, d), facets
        multi += sum(1 for b in ours if b) >= 2
    assert multi >= 10


def test_chessboard_scale_vanishes_without_confirmation():
    # BLVZ: C(k,m) is (nu-2)-connected, nu = min(k, m, floor((k+m+1)/3)),
    # which is 5 here, so the mod-p filter certifies degrees 0..3 alone
    bv = betti_reduced(chessboard(5, 9, trunc=4), 3)
    assert bv.betti == (0, 0, 0, 0)
    assert bv.exact_confirmations == 0


def test_chessboard_torsion_pair_clearing():
    # chessboard complexes carry 3-torsion (Shareshian-Wachs); beta_3 needs
    # the exact ranks of maps 3 and 4, the first with the leads of the second
    # cleared
    bv = betti_reduced(chessboard(5, 7, trunc=4), 3)
    assert bv.betti == (0, 0, 0, 98)
    assert bv.exact_confirmations == 2


def test_euler_poincare():
    samples = [chessboard(2, 3), chessboard(3, 4), as_complex(K4, 2),
               full_simplex(4), from_facets([(0, 1), (2, 3)])]
    for X in samples:
        top = max(X.dimension, 0)
        bv = betti_reduced(X, top)
        reduced_euler = sum((-1) ** i * b for i, b in enumerate(bv.betti))
        assert X.euler_characteristic() - 1 == reduced_euler


def test_homologically_connected_examples():
    rep = homologically_connected(as_complex(UniformMatroid(2, 4), 1), 0)
    assert rep.verified

    rep = homologically_connected(chessboard(2, 2), 0)
    assert not rep.verified and rep.first_nonvanishing == 0

    rep = homologically_connected(chessboard(3, 5), 1)
    assert rep.verified

    rep = homologically_connected(chessboard(2, 3), -1)
    assert rep.verified  # nonempty is all that is asked

    empty = from_facets([])
    assert not homologically_connected(empty, -1).verified


def test_matroid_connectivity_sample():
    for M in (UniformMatroid(2, 4), UniformMatroid(3, 6), K4,
              colourful_matroid(2, 2)):
        c = M.rank() - 2
        X = as_complex(M, max(c + 1, 0))
        assert homologically_connected(X, c).verified


def test_verify_claim_examples():
    M = UniformMatroid(2, 4)
    rep = verify_claim([M], [frozenset({0, 1})], 1)
    assert rep.bound == -1 and rep.verified

    rep = verify_claim([M, M], [frozenset({0, 1}), frozenset({2, 3})], 1)
    assert rep.bound == 0 and rep.verified

    # rank-1 factors: each part must split into m=2 singletons
    one = UniformMatroid(1, 4)
    rep = verify_claim([one, one], [frozenset({0, 1}), frozenset({2, 3})], 2)
    assert rep.bound == 0 and rep.verified


def test_verify_claim_hypothesis_violations():
    one = UniformMatroid(1, 3)
    with pytest.raises(HypothesisViolation) as err:
        verify_claim([one, one], [frozenset({0}), frozenset({1, 2})], 1)
    assert err.value.certificate.witness == frozenset({1, 2})
    with pytest.raises(HypothesisViolation):
        verify_claim([one, one], [frozenset({0, 1}), frozenset({1, 2})], 2)


def test_verify_corollary_examples():
    rep = verify_corollary(UniformMatroid(1, 3), 2)
    assert rep.bound == -1 and rep.verified

    rep = verify_corollary(UniformMatroid(2, 4), 2)
    assert rep.bound == 0 and rep.verified

    rep = verify_corollary(colourful_matroid(2, 1), 2)
    assert rep.bound == 0 and rep.verified
    assert rep.context["b"] == 2 and rep.context["rank"] == 2


def test_conjecture_scan_chessboard_thresholds():
    for k in (2, 3):
        below = conjecture_scan(UniformMatroid(1, 2 * k - 2), k)
        assert not below.verified
        assert below.report.first_nonvanishing == k - 2
        at = conjecture_scan(UniformMatroid(1, 2 * k - 1), k)
        assert at.verified
    rec = conjecture_scan(UniformMatroid(1, 1), 1)
    assert rec.target == -1 and rec.verified
