"""Exact rational linear feasibility via phase-1 simplex.

Decides {x : Ax = b, x >= 0} with Bland's smallest-index anti-cycling rule,
so answers are certificates rather than tolerance judgements.  The tableau
is fraction-free (Edmonds 1967): integer rows over positive denominators,
pivoted by integer row operations and reduced by their gcd.  It holds the
values of the rational tableau, so pivots and answers are the rational ones.
An infeasible answer carries a Farkas ray, re-checked in integers.  Problem
sizes here are tiny, so a dense tableau is the right tool.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError


def solve_equality_feasibility(A, b):
    """A feasible point of {x >= 0 : Ax = b}, or None.

    A is a list of m rows of length n; int or Fraction entries, as is b.
    ``_phase1`` gets each row [A_i | b_i] times the lcm of its denominators,
    negated where b_i < 0.
    """
    if not A:
        return []
    n = len(A[0])
    rows = []  # [a_i1 .. a_in, b_i] times scales[i], integers, b_i >= 0
    scales = []
    for i in range(len(A)):
        if len(A[i]) != n:
            raise InputError("ragged constraint matrix")
        row = [*A[i], b[i]]
        sign = -1 if row[-1] < 0 else 1
        scale = lcm(*(x.denominator for x in row))
        rows.append([sign * x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return _phase1(rows, scales)


def _phase1(rows, scales):
    """A feasible point of {x >= 0 : Ax = b}, or None, given m >= 1 integer
    rows [A_i | b_i] * scales[i], b_i >= 0.  Phase-1 simplex: feasible iff
    the sum of the artificial variables has minimum zero; otherwise the final
    simplex multipliers are a Farkas ray, checked before None is returned."""
    m = len(rows)
    n = len(rows[0]) - 1
    # tableau row i is T[i] / den[i]: n original columns, m artificial
    # columns (basic at the start), then the rhs.  Row m is the phase-1 cost
    # row [reduced costs | -objective] for costs (0..0, 1..1).
    T = [row[:n] + [scales[i] if j == i else 0 for j in range(m)] + row[n:]
         for i, row in enumerate(rows)]
    top = lcm(*scales)
    weights = [top // s for s in scales]
    cost = [-sum(row[j] * w for row, w in zip(rows, weights)) for j in range(n + 1)]
    T.append(cost[:n] + [0] * m + cost[n:])
    den = scales + [top]
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n + m) if T[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = T[i][enter]
            if a <= 0:
                continue
            if leave is None:
                leave = i
                continue
            # ratio rhs/a (the denominators cancel), cross-multiplied
            diff = T[i][-1] * T[leave][enter] - T[leave][-1] * a
            if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            # cost is bounded below by 0, so phase-1 cannot be unbounded
            raise RuntimeError("phase-1 simplex reported unbounded descent")
        g = gcd(*T[leave])
        prow = T[leave] = [x // g for x in T[leave]]
        piv = den[leave] = prow[enter]
        for i in range(m + 1):
            f = T[i][enter]
            if i != leave and f:
                row = [piv * x - f * y for x, y in zip(T[i], prow)]
                d = den[i] * piv
                g = gcd(d, *row)
                T[i] = [x // g for x in row]
                den[i] = d // g
        basis[leave] = enter

    if T[m][-1] != 0:
        # y_i = 1 - (reduced cost of artificial i), times den[m] * top /
        # scales[i] to fit the integer rows
        y = [(den[m] - c) * w for c, w in zip(T[m][n:n + m], weights)]
        _check_farkas(rows, y)
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(T[i][-1], den[i])
    return x


def _check_farkas(rows, y):
    """Raise unless y^T A <= 0 < y^T b for the integer rows [A | b], which
    proves {x >= 0 : Ax = b} empty: y^T b = y^T A x <= 0 for a feasible x."""
    sums = [sum(c * yi for c, yi in zip(col, y)) for col in zip(*rows)]
    if any(s > 0 for s in sums[:-1]) or sums[-1] <= 0:
        raise RuntimeError("infeasible LP answer without a valid Farkas ray")


def _as_point(pt, dim):
    if len(pt) != dim:
        raise InputError(f"point of dimension {len(pt)}, expected {dim}")
    return tuple(c if type(c) is Fraction else Fraction(c) for c in pt)


def hulls_intersect(point_sets):
    """Common point of the convex hulls of the given point sets, or None.

    Returns (p, lambdas) where lambdas[i][j] >= 0 are convex coefficients with
    sum 1 per set and sum_j lambdas[i][j] * point = p exactly for every set.
    Decided by exact phase-1 simplex on the convexity and pairwise-equal
    barycenter equations, built as the integer rows ``_phase1`` takes: each
    barycenter row is scaled by the lcm of its coordinates' denominators.
    """
    sets = [list(s) for s in point_sets]
    if not sets or any(not s for s in sets):
        raise InputError("every point set must be nonempty")
    dim = len(sets[0][0])
    if dim < 1:
        raise InputError("dimension must be >= 1")
    pts = [[_as_point(p, dim) for p in s] for s in sets]
    t = len(pts)
    sizes = [len(s) for s in pts]
    offsets = [sum(sizes[:i]) for i in range(t)]
    nvar = sum(sizes)

    rows = [[0] * offsets[i] + [1] * sizes[i] + [0] * (nvar - offsets[i] - sizes[i]) + [1]
            for i in range(t)]
    scales = [1] * t
    for i in range(1, t):
        for ell in range(dim):
            cs = [p[ell] for p in pts[0]] + [p[ell] for p in pts[i]]
            scale = lcm(*(c.denominator for c in cs))
            ints = [c.numerator * (scale // c.denominator) for c in cs]
            row = [-v for v in ints[: sizes[0]]] + [0] * (nvar + 1 - sizes[0])
            row[offsets[i] : offsets[i] + sizes[i]] = ints[sizes[0] :]
            rows.append(row)
            scales.append(scale)

    x = _phase1(rows, scales)
    if x is None:
        return None
    lambdas = [x[offsets[i] : offsets[i] + sizes[i]] for i in range(t)]
    point = tuple(
        sum((lam * p[ell] for lam, p in zip(lambdas[0], pts[0])), Fraction(0))
        for ell in range(dim)
    )
    for i in range(t):
        if sum(lambdas[i]) != 1 or any(l < 0 for l in lambdas[i]):
            raise RuntimeError("LP witness is not a convex combination")
        for ell in range(dim):
            s = sum((lam * p[ell] for lam, p in zip(lambdas[i], pts[i])), Fraction(0))
            if s != point[ell]:
                raise RuntimeError("LP witness hulls do not meet at one point")
    return point, lambdas
