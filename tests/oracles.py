"""Independent brute-force oracles the library is tested against.

These deliberately share no code with the package internals: packing maxima
by exhaustive set packing, deleted joins by testing every vertex set, Betti
numbers via dense integer Smith reduction, hull intersection via
Fourier-Motzkin elimination, and the rational-tableau phase-1 simplex that
the fraction-free solver must match pivot for pivot.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


# -- packing -------------------------------------------------------------------


def all_bases(M):
    r = M.rank()
    return [frozenset(c) for c in combinations(range(M.n), r) if M.is_independent(c)]


def brute_max_disjoint_bases(M):
    """Maximum number of pairwise disjoint bases by exhaustive search."""
    r = M.rank()
    if r == 0:
        return 0
    bases = all_bases(M)
    best = 0

    def rec(start, used, count):
        nonlocal best
        if count > best:
            best = count
        if count + (M.n - len(used)) // r <= best:
            return
        for i in range(start, len(bases)):
            if used.isdisjoint(bases[i]):
                rec(i + 1, used | bases[i], count + 1)

    rec(0, frozenset(), 0)
    return best


def brute_coverable(M, A, m):
    """Whether A splits into at most m independent sets, by the covering
    duality: possible iff |A'| <= m*rank(A') for every A' <= A."""
    A = sorted(A)
    for k in range(1, len(A) + 1):
        for sub in combinations(A, k):
            if len(sub) > m * M.rank(sub):
                return False
    return True


# -- deleted joins -------------------------------------------------------------


def brute_deleted_join(matroids, trunc):
    """(faces by dimension through trunc, complete) of the deleted join.

    Every set of labeled vertices copy*n + element is tested: its elements
    must be distinct and each copy's part independent in that copy's matroid.
    ``complete`` is whether no face of dimension trunc+1 exists.
    """
    n = matroids[0].n
    vertices = range(len(matroids) * n)

    def is_face(vs):
        elems = [v % n for v in vs]
        if len(set(elems)) < len(elems):
            return False
        return all(M.is_independent([v % n for v in vs if v // n == c])
                   for c, M in enumerate(matroids))

    by_dim = {}
    for size in range(1, min(trunc + 1, n) + 1):  # a face has distinct elements
        faces = [vs for vs in combinations(vertices, size) if is_face(vs)]
        if faces:
            by_dim[size - 1] = faces
    beyond = trunc + 2 <= n and any(map(is_face, combinations(vertices, trunc + 2)))
    return by_dim, not beyond


# -- homology ------------------------------------------------------------------


def _snf_rank(mat):
    """Rank of an integer matrix via naive Smith-style reduction."""
    mat = [row[:] for row in mat]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    r = c = 0
    while r < m and c < n:
        piv = None
        for i in range(r, m):
            for j in range(c, n):
                if mat[i][j] != 0 and (piv is None or abs(mat[i][j]) < abs(mat[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        mat[r], mat[i] = mat[i], mat[r]
        for row in mat:
            row[c], row[j] = row[j], row[c]
        while True:
            done = True
            for i in range(r + 1, m):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        mat[r], mat[i] = mat[i], mat[r]
                        done = False
            for j in range(c + 1, n):
                if mat[r][j]:
                    q = mat[r][j] // mat[r][c]
                    for row in mat:
                        row[j] -= q * row[c]
                    if mat[r][j]:
                        for row in mat:
                            row[c], row[j] = row[j], row[c]
                        done = False
            if done:
                break
        rank += 1
        r += 1
        c += 1
    return rank


def snf_betti(faces_by_dim, up_to):
    """Reduced Betti numbers from scratch: dense boundary matrices + SNF ranks.

    faces_by_dim: dict dim -> list of sorted tuples (the whole complex).
    """
    idx = {d: {f: i for i, f in enumerate(fs)} for d, fs in faces_by_dim.items()}
    f = {d: len(fs) for d, fs in faces_by_dim.items()}

    def boundary(i):
        cols = faces_by_dim.get(i, [])
        if i == 0:
            return [[1] * len(cols)] if cols else []
        rows = idx.get(i - 1, {})
        mat = [[0] * len(cols) for _ in range(len(rows))]
        for jcol, face in enumerate(cols):
            for j in range(len(face)):
                sub = face[:j] + face[j + 1 :]
                mat[rows[sub]][jcol] = -1 if j % 2 else 1
        return mat

    ranks = {}
    for i in range(up_to + 2):
        mat = boundary(i)
        ranks[i] = _snf_rank(mat) if mat and mat[0] else 0
    return tuple(
        f.get(i, 0) - ranks[i] - ranks[i + 1] for i in range(up_to + 1)
    )


# -- hull intersection ---------------------------------------------------------


def _normalize(row):
    """Scale a rational row to coprime integers (sign preserved)."""
    den = 1
    for v in row:
        den = den * v.denominator // gcd(den, v.denominator)
    scaled = [int(v * den) for v in row]
    return _reduce_ints(scaled)


def _reduce_ints(scaled):
    g = 0
    for v in scaled:
        g = gcd(g, v)
    if g == 0:
        return tuple(scaled)
    return tuple(v // g for v in scaled)


def _dominance_filter(rows, nvars):
    """Among rows sharing a coefficient vector keep only the tightest constant."""
    best = {}
    for row in rows:
        key = row[:nvars]
        if key not in best or row[nvars] > best[key]:
            best[key] = row[nvars]
    return {key + (c,) for key, c in best.items()}


def fourier_motzkin_feasible(ineqs, nvars):
    """Feasibility of {x : row . (x, 1) <= 0 for each row}; rows have nvars+1
    entries (coefficients then constant).  Pure elimination, exact; variables
    are eliminated smallest pos*neg product first to curb row growth."""
    rows = {_normalize([Fraction(v) for v in row]) for row in ineqs}
    rows = _dominance_filter(rows, nvars)
    remaining = set(range(nvars))
    while remaining:
        def cost(j):
            pos = sum(1 for r in rows if r[j] > 0)
            neg = sum(1 for r in rows if r[j] < 0)
            return pos * neg - pos - neg

        j = min(sorted(remaining), key=cost)
        remaining.discard(j)
        pos, neg, rest = [], [], []
        for row in rows:
            if row[j] > 0:
                pos.append(row)
            elif row[j] < 0:
                neg.append(row)
            else:
                rest.append(row)
        new = set(rest)
        for rp in pos:
            a = rp[j]
            for rn in neg:
                mb = -rn[j]
                comb = [mb * x + a * y for x, y in zip(rp, rn)]
                comb[j] = 0
                new.add(_reduce_ints(comb))
        rows = _dominance_filter(new, nvars)
    return all(row[nvars] <= 0 for row in rows)


def hulls_intersect_fm(point_sets):
    """Fourier-Motzkin route to the same feasibility decided by the LP."""
    sets = [list(s) for s in point_sets]
    dim = len(sets[0][0])
    sizes = [len(s) for s in sets]
    offsets = [sum(sizes[:i]) for i in range(len(sets))]
    nvar = sum(sizes)

    ineqs = []
    for j in range(nvar):
        row = [Fraction(0)] * (nvar + 1)
        row[j] = Fraction(-1)
        ineqs.append(row)  # -lambda_j <= 0

    def add_eq(coeffs, const):
        ineqs.append(coeffs + [Fraction(const)])
        ineqs.append([-c for c in coeffs] + [Fraction(-const)])

    for i, s in enumerate(sets):
        coeffs = [Fraction(0)] * nvar
        for j in range(sizes[i]):
            coeffs[offsets[i] + j] = Fraction(1)
        add_eq(coeffs, -1)  # sum lambda - 1 <= 0 and >=
    for i in range(1, len(sets)):
        for ell in range(dim):
            coeffs = [Fraction(0)] * nvar
            for j, p in enumerate(sets[i]):
                coeffs[offsets[i] + j] = Fraction(p[ell])
            for j, p in enumerate(sets[0]):
                coeffs[offsets[0] + j] -= Fraction(p[ell])
            add_eq(coeffs, 0)
    return fourier_motzkin_feasible(ineqs, nvar)


def fraction_simplex(A, b):
    """Phase-1 simplex on a Fraction tableau with Bland's rule: a feasible
    point of {x >= 0 : Ax = b}, or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        r = Fraction(b[i])
        if r < 0:
            row = [-x for x in row]
            r = -r
        rows.append(row)
        rhs.append(r)
    if m == 0:
        return [Fraction(0)] * n

    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
           for i in range(m)]
    basis = [n + i for i in range(m)]
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
        obj += f * rhs[leave]
        basis[leave] = enter

    if obj != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rhs[i]
    return x
