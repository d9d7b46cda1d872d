"""Exact LP feasibility: hand-checked instances plus the Fourier-Motzkin oracle."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tvermat.lp
from oracles import fraction_simplex, hull_system, hulls_intersect_fm
from tvermat import InputError, hulls_intersect, solve_equality_feasibility
from tvermat.lp import _check_farkas


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
    monkeypatch.setattr(tvermat.lp, "_phase1",
                        lambda rows, scales: [Fraction(2), Fraction(-1), Fraction(1)])
    with pytest.raises(RuntimeError):
        hulls_intersect([[(0,), (2,)], [(1,)]])
    # convex coefficients whose hulls do not meet at the reported point
    monkeypatch.setattr(tvermat.lp, "_phase1",
                        lambda rows, scales: [Fraction(1), Fraction(0), Fraction(1)])
    with pytest.raises(RuntimeError):
        hulls_intersect([[(0,), (2,)], [(1,)]])


def _random_system(rng):
    """Small entries and zero right-hand sides make ratio ties and
    degenerate pivots common."""
    m, n = rng.randint(1, 5), rng.randint(1, 7)
    vals = (0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
    A = [[rng.choice(vals) for _ in range(n)] for _ in range(m)]
    b = [rng.choice((0, 0, 1, -1, 2, Fraction(1, 3))) for _ in range(m)]
    return A, b


def _degenerate_sets(rng):
    """Point sets on a coarse integer grid, with repeated points."""
    d = rng.randint(1, 3)
    grid = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(4)]
    return [[rng.choice(grid) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 3))]


def test_integer_tableau_matches_fraction_reference(monkeypatch):
    rng = random.Random(2024)
    systems = [_random_system(rng) for _ in range(1500)]

    passed = []

    def record(rows, scales):
        # the hull test's integer rows, compared below as row / scale
        passed.append((rows, scales))
        A = [[Fraction(x, s) for x in row[:-1]] for row, s in zip(rows, scales)]
        b = [Fraction(row[-1], s) for row, s in zip(rows, scales)]
        systems.append((A, b))
        return fraction_simplex(A, b)

    monkeypatch.setattr(tvermat.lp, "_phase1", record)
    families = []
    for _ in range(300):
        for sets in (_random_instance(rng), _degenerate_sets(rng)):
            families.append(sets)
            hulls_intersect(sets)
    # they are the rows and scales solve_equality_feasibility derives from the
    # hull test's Fraction rows, so the pivots and the witness are the same
    derived = []
    monkeypatch.setattr(tvermat.lp, "_phase1",
                        lambda rows, scales: derived.append((rows, scales)))
    for sets in families:
        solve_equality_feasibility(*hull_system(sets))
    monkeypatch.undo()
    assert derived == passed
    assert len(systems) == 2100
    outcomes = set()
    for A, b in systems:
        x = solve_equality_feasibility(A, b)
        assert x == fraction_simplex(A, b), (A, b)
        outcomes.add(x is None)
    assert outcomes == {True, False}


def test_wrong_farkas_ray_raises():
    # x0 + x1 = 1, x0 - x1 = 3 over x >= 0: y = (-1, 1) gives y^T A = (0, -2)
    # and y^T b = 2
    rows = [[1, 1, 1], [1, -1, 3]]
    _check_farkas(rows, [-1, 1])
    for y in ([1, 0], [0, 0], [-1, 0], [1, -1]):
        with pytest.raises(RuntimeError):
            _check_farkas(rows, y)


def test_certificate_checks_hold_under_optimize():
    script = """
import sys
from fractions import Fraction
import tvermat.lp
from tvermat.lp import _check_farkas, hulls_intersect
assert sys.flags.optimize == 1
try:
    _check_farkas([[1, 1, 1], [1, -1, 3]], [1, 0])
    sys.exit("wrong Farkas ray accepted")
except RuntimeError:
    pass
for x in ([Fraction(2), Fraction(-1), Fraction(1)], [Fraction(1), Fraction(0), Fraction(1)]):
    tvermat.lp._phase1 = lambda rows, scales: x
    try:
        hulls_intersect([[(0,), (2,)], [(1,)]])
        sys.exit("wrong solver result accepted")
    except RuntimeError:
        pass
print("ok")
"""
    src = Path(tvermat.lp.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
