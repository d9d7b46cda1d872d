"""Exact rational linear feasibility via phase-1 simplex.

Decides {x : Ax = b, x >= 0} with Fraction arithmetic and Bland's
smallest-index anti-cycling rule, so answers are certificates rather than
tolerance judgements.  Problem sizes here are tiny (convex-hull intersection
systems), so a dense tableau is the right tool.
"""

from fractions import Fraction

from .errors import InputError


def solve_equality_feasibility(A, b):
    """A feasible point of {x >= 0 : Ax = b}, or None.

    A is a list of m rows of length n; entries anything Fraction() accepts.
    Phase-1 simplex: minimize the sum of artificial variables; feasibility
    holds iff the optimum is zero.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):
        if len(A[i]) != n:
            raise InputError("ragged constraint matrix")
        row = [Fraction(x) for x in A[i]]
        r = Fraction(b[i])
        if r < 0:
            row = [-x for x in row]
            r = -r
        rows.append(row)
        rhs.append(r)
    if m == 0:
        return [Fraction(0)] * n

    # tableau columns: n original + m artificial; artificials start basic
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    # reduced costs for cost vector (0..0, 1..1) with artificial basis
    red = [-sum(tab[i][j] for i in range(m)) for j in range(n)] + [Fraction(0)] * m
    obj = sum(rhs)

    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            # cost is bounded below by 0, so phase-1 cannot be unbounded
            raise RuntimeError("phase-1 simplex reported unbounded descent")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
                rhs[i] -= f * rhs[leave]
        f = red[enter]
        red = [x - f * y for x, y in zip(red, tab[leave])]
        obj += f * rhs[leave]  # entering by theta changes cost by red[enter]*theta
        basis[leave] = enter

    if obj != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rhs[i]
    return x


def _as_point(pt, dim):
    if len(pt) != dim:
        raise InputError(f"point of dimension {len(pt)}, expected {dim}")
    return tuple(Fraction(c) for c in pt)


def hulls_intersect(point_sets):
    """Common point of the convex hulls of the given point sets, or None.

    Returns (p, lambdas) where lambdas[i][j] >= 0 are convex coefficients with
    sum 1 per set and sum_j lambdas[i][j] * point = p exactly for every set.
    Decided by exact phase-1 simplex on the convexity and pairwise-equal
    barycenter equations.
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

    rows = []
    rhs = []
    for i in range(t):
        row = [Fraction(0)] * nvar
        for j in range(sizes[i]):
            row[offsets[i] + j] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))
    for i in range(1, t):
        for ell in range(dim):
            row = [Fraction(0)] * nvar
            for j, p in enumerate(pts[i]):
                row[offsets[i] + j] = p[ell]
            for j, p in enumerate(pts[0]):
                row[offsets[0] + j] -= p[ell]
            rows.append(row)
            rhs.append(Fraction(0))

    x = solve_equality_feasibility(rows, rhs)
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
