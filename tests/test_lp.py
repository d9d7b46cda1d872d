"""Exact LP feasibility: hand-checked instances plus the Fourier-Motzkin oracle."""

import random
from fractions import Fraction

import pytest

from oracles import hulls_intersect_fm
from tvermat import InputError, hulls_intersect, solve_equality_feasibility


def test_segments_overlap():
    res = hulls_intersect([[(0,), (2,)], [(1,), (3,)]])
    assert res is not None
    point, lambdas = res
    assert Fraction(1) <= point[0] <= Fraction(2)


def test_segments_disjoint():
    assert hulls_intersect([[(0,), (1,)], [(2,), (3,)]]) is None


def test_triangle_contains_point():
    tri = [(0, 0), (2, 0), (1, 2)]
    res = hulls_intersect([tri, [(1, Fraction(1, 2))]])
    assert res is not None
    point, lambdas = res
    assert point == (Fraction(1), Fraction(1, 2))
    assert lambdas[0] == [Fraction(3, 8), Fraction(3, 8), Fraction(1, 4)]


def test_shared_vertex():
    assert hulls_intersect([[(0, 0), (1, 0)], [(0, 0), (0, 1)]]) is not None


def test_input_errors():
    with pytest.raises(InputError):
        hulls_intersect([[(0, 0)], []])
    with pytest.raises(InputError):
        hulls_intersect([[(0, 0)], [(0,)]])


def test_equality_feasibility_direct():
    # x0 + x1 = 1, x0 - x1 = 3 forces x1 = -1 < 0: infeasible over x >= 0
    assert solve_equality_feasibility([[1, 1], [1, -1]], [1, 3]) is None
    x = solve_equality_feasibility([[1, 1], [1, -1]], [3, 1])
    assert x == [Fraction(2), Fraction(1)]
    assert solve_equality_feasibility([], []) == []


def _random_instance(rng):
    d = rng.randint(1, 2)
    total = rng.randint(2, 6)
    groups = rng.randint(2, min(3, total))
    sizes = [1] * groups
    for _ in range(total - groups):
        sizes[rng.randrange(groups)] += 1
    sets = [
        [
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d))
            for _ in range(s)
        ]
        for s in sizes
    ]
    return sets


def test_agreement_with_fourier_motzkin():
    rng = random.Random(99)
    hits = 0
    for _ in range(120):
        sets = _random_instance(rng)
        lp = hulls_intersect(sets)
        fm = hulls_intersect_fm(sets)
        assert (lp is not None) == fm, sets
        hits += lp is not None
    assert 0 < hits < 120  # both outcomes exercised


def test_corrupted_solver_result_raises(monkeypatch):
    import tvermat.lp

    # a solution that is not a convex combination: the witness check must
    # reject it even under ``python -O``
    monkeypatch.setattr(tvermat.lp, "solve_equality_feasibility",
                        lambda rows, rhs: [Fraction(2), Fraction(-1), Fraction(1)])
    with pytest.raises(RuntimeError):
        hulls_intersect([[(0,), (2,)], [(1,)]])
    # convex coefficients whose hulls do not meet at the reported point
    monkeypatch.setattr(tvermat.lp, "solve_equality_feasibility",
                        lambda rows, rhs: [Fraction(1), Fraction(0), Fraction(1)])
    with pytest.raises(RuntimeError):
        hulls_intersect([[(0,), (2,)], [(1,)]])
