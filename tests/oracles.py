"""Independent brute-force oracles the library is tested against.

These deliberately share no code with the package internals: graphic ranks
by counting connected components, linear ranks by dense elimination over
Q or GF(p), packing maxima by exhaustive set packing, packings, covers and
their certificates by a plain matroid-union BFS that asks every part for
every element and rebuilds its state on each augmentation, deleted joins by
testing every vertex set, Betti numbers via dense integer Smith reduction, the
element matching off the first vertex's star by visiting every face that
holds each vertex and its Morse complex by flowing through every pair, hull
intersection via Fourier-Motzkin elimination, the Fraction rows of a hull
test, the rational-tableau phase-1 simplex that the fraction-free solver
must match pivot for pivot, and the first Tverberg witness by trying every
disjoint face tuple in order.  The one exception is ``exact_betti``: it
ranks the package's own boundary matrices with its exact elimination, and so
checks the Morse reduction alone (the Smith oracle checks the elimination).
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import gcd

from tvermat.homology import _rank_sparse_exact, boundary_matrix


# -- matroid ranks -------------------------------------------------------------


def graph_rank(num_vertices, edges):
    """Rank of an edge set in the cycle matroid: vertices minus the connected
    components of the spanning subgraph, counted by depth-first search."""
    adj = {v: [] for v in range(num_vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    components = 0
    for root in range(num_vertices):
        if root in seen:
            continue
        components += 1
        seen.add(root)
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return num_vertices - components


def column_rank(columns, p=None):
    """Rank of a list of rational columns over Q (p None) or GF(p), by dense
    Gaussian elimination on the columns taken as rows."""
    if p is None:
        rows = [[Fraction(x) for x in col] for col in columns]
    else:
        rows = [[Fraction(x).numerator * pow(Fraction(x).denominator, p - 2, p) % p
                 for x in col] for col in columns]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if p is None:
                f = rows[i][c] / top[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
            else:
                f = rows[i][c] * pow(top[c], p - 2, p)
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank


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


def _reference_augment(M, parts, universe):
    """One plain BFS augmentation, every part asked for every element: the
    covered map and the sorted sources are rebuilt on each call.  Returns
    None after growing the parts by one element, or the reached set."""
    covered = {}
    for i, part in enumerate(parts):
        for e in part:
            covered[e] = i
    sources = [e for e in sorted(universe) if e not in covered]
    parent = {}
    reached = set(sources)
    queue = deque(sources)
    while queue:
        x = queue.popleft()
        circuits = []
        for i, part in enumerate(parts):
            if x in part:
                continue
            circuit = M.fundamental_circuit(part, x)
            if circuit is None:
                parts[i].add(x)
                cur = x
                while cur in parent:
                    prev, j = parent[cur]
                    parts[j].discard(cur)
                    parts[j].add(prev)
                    cur = prev
                return None
            circuits.append((i, circuit))
        for i, circuit in circuits:
            for y in circuit:
                if y not in reached:
                    reached.add(y)
                    parent[y] = (x, i)
                    queue.append(y)
    return frozenset(reached)


def _reference_grow(M, parts, universe, target):
    while sum(len(p) for p in parts) < target:
        reached = _reference_augment(M, parts, universe)
        if reached is not None:
            return reached
    return None


def reference_pack_k_bases(M, k):
    """k disjoint bases as a list of frozensets, or the reached set that
    certifies there are none, by the plain per-call BFS."""
    parts = [set() for _ in range(k)]
    reached = _reference_grow(M, parts, range(M.n), k * M.rank())
    return reached if reached is not None else [frozenset(p) for p in parts]


def reference_max_disjoint_bases(M):
    """(b, bases, certificate set) by the plain per-call BFS, which copies
    every base before it appends each new part; (0, [], None) at rank 0."""
    full = M.rank()
    if full == 0:
        return 0, [], None
    parts = []
    while True:
        bases = [frozenset(p) for p in parts]
        parts.append(set())
        reached = _reference_grow(M, parts, range(M.n), len(parts) * full)
        if reached is not None:
            return len(bases), bases, reached


def reference_pack_into_independent(M, A, m):
    """The nonempty parts covering A, or the reached set that certifies A is
    no union of m independent sets, by the plain per-call BFS."""
    parts = [set() for _ in range(m)]
    reached = _reference_grow(M, parts, frozenset(A), len(set(A)))
    return reached if reached is not None else [frozenset(p) for p in parts if p]


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


def exact_betti(X, up_to):
    """Reduced Betti numbers of the stored complex X through ``up_to``, every
    rank taken on the boundary columns of X itself, with no reduction and no
    clearing: the reference the Morse pass is tested against."""
    ranks = [len(_rank_sparse_exact([dict(col) for col in boundary_matrix(X, i).cols]))
             for i in range(up_to + 2)]
    return tuple(len(X.faces(i)) - ranks[i] - ranks[i + 1] for i in range(up_to + 1))


def element_matching(X, top):
    """The element matching on the faces of X of dimensions -1..top off
    the star of its first vertex v1, as
    ``homology._element_matching`` returns it: (up, critical) by face size.

    A face s is off the star when v1 is not in s and s + v1 is not a stored
    face.  A relative join carries its vertices and stores only faces off U,
    which holds the star, so there only the empty face is cut.  Each later
    vertex v in ascending order visits every face t holding it, of every
    size, and pairs t with s = t - v when both are still unmatched.
    """
    vertices = X.vertices or [v for (v,) in X.faces(0)]
    levels = [[()]] + [X.faces(d) for d in range(top + 1)]
    if X.vertices:
        levels[0] = []
    elif vertices:
        stored = set(X.all_faces()) | {()}
        v1 = vertices[0]
        levels = [[s for s in level if v1 not in s and tuple(sorted(s + (v1,))) not in stored]
                  for level in levels]
    free = [set(level) for level in levels]
    up = [{} for _ in free]
    holding = {v: [] for v in vertices}  # vertex -> the faces with it, by size
    for level in levels:
        for t in level:
            for v in t:
                holding[v].append(t)
    for v in vertices[1:]:
        for t in holding.pop(v):
            k = len(t)
            if t in free[k]:
                i = t.index(v)
                s = t[:i] + t[i + 1:]
                if s in free[k - 1]:
                    free[k - 1].remove(s)
                    free[k].remove(t)
                    up[k - 1][s] = (t, -1 if i % 2 else 1)
    return up, [sorted(cells) for cells in free]


def morse_complex(X, top):
    """The Morse complex of ``element_matching`` on the faces of X of
    dimensions -1..top off the first vertex's star, flowed through every
    pair (a facet in the star is no chain): (critical, maps) with
    maps[k] the (nrows, ncols, sorted (row, col, entry) triplets) of the map
    from critical (k+1)-faces to critical k-faces.

    Each pair s -> t steps to the other facets r of t with coefficient
    -[t:s][t:r]; a Kahn order of the pairs (a cycle raises) puts each pair
    before the pairs it steps to, and the flow of each pair is summed in
    reverse order from the flows of the faces it steps to.
    """

    def facets(face):
        return [(face[:j] + face[j + 1:], -1 if j % 2 else 1) for j in range(len(face))]

    up, critical = element_matching(X, top)
    maps = []
    for k in range(top + 1):
        pairs, rows = up[k], {face: r for r, face in enumerate(critical[k])}
        indegree = dict.fromkeys(pairs, 0)
        steps = {}
        for s, (t, sign) in pairs.items():
            steps[s] = [(r, -sign * e) for r, e in facets(t)
                        if r != s and (r in pairs or r in rows)]
            for r, _ in steps[s]:
                if r in pairs:
                    indegree[r] += 1
        order = [s for s, n in indegree.items() if not n]
        for s in order:
            for r, _ in steps[s]:
                if r in pairs:
                    indegree[r] -= 1
                    if not indegree[r]:
                        order.append(r)
        if len(order) < len(pairs):
            raise RuntimeError("matching has a cycle")
        flow = {}

        def boundary(terms):
            acc = {}
            for r, e in terms:
                for i, v in ({rows[r]: 1} if r in rows else flow.get(r, {})).items():
                    acc[i] = acc.get(i, 0) + e * v
            return {i: v for i, v in acc.items() if v}

        for s in reversed(order):
            flow[s] = boundary(steps[s])
        cells = critical[k + 1]
        triplets = sorted((i, j, v) for j, c in enumerate(cells)
                          for i, v in boundary(facets(c)).items())
        maps.append((len(rows), len(cells), triplets))
    return critical, maps


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


def hull_system(point_sets):
    """The convexity and barycenter equations of a hull test as Fraction rows
    and right-hand sides: one sum-to-1 row per set, then for each later set i
    and coordinate ell the row sum_j lambda_ij p_ij[ell] - sum_j lambda_0j
    p_0j[ell] = 0, where p_ij is point j of set i."""
    sets = [[tuple(Fraction(c) for c in p) for p in s] for s in point_sets]
    dim = len(sets[0][0])
    sizes = [len(s) for s in sets]
    offsets = [sum(sizes[:i]) for i in range(len(sets))]
    nvar = sum(sizes)
    rows, rhs = [], []
    for i in range(len(sets)):
        row = [0] * nvar
        for j in range(sizes[i]):
            row[offsets[i] + j] = 1
        rows.append(row)
        rhs.append(1)
    for i in range(1, len(sets)):
        for ell in range(dim):
            row = [0] * nvar
            for j, p in enumerate(sets[i]):
                row[offsets[i] + j] = p[ell]
            for j, p in enumerate(sets[0]):
                row[offsets[0] + j] -= p[ell]
            rows.append(row)
            rhs.append(0)
    return rows, rhs


def hulls_intersect_fm(point_sets):
    """Fourier-Motzkin route to the same feasibility decided by the LP."""
    rows, rhs = hull_system(point_sets)
    nvar = len(rows[0])
    ineqs = [[-1 if i == j else 0 for i in range(nvar)] + [0]
             for j in range(nvar)]  # -lambda_j <= 0
    for row, r in zip(rows, rhs):  # row . lambda - r <= 0 and >= 0
        ineqs.append(row + [-r])
        ineqs.append([-c for c in row] + [r])
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


# -- Tverberg witnesses ---------------------------------------------------------


def brute_first_witness(M, points, max_size, t, intersect):
    """The first t pairwise disjoint independent sets of at most ``max_size``
    elements, in lexicographic order of face tuples, whose point hulls
    ``intersect`` finds meeting, as (faces, point, coefficients); None when no
    tuple meets.  Faces come from testing every element subset, tuples from
    ``itertools.combinations`` of the sorted faces."""
    faces = sorted(face for size in range(1, max_size + 1)
                   for face in combinations(range(M.n), size) if M.is_independent(face))
    for tup in combinations(faces, t):
        if len(set().union(*tup)) != sum(map(len, tup)):
            continue
        res = intersect([[points[e] for e in face] for face in tup])
        if res is not None:
            return list(tup), *res
    return None


# -- triplet files -------------------------------------------------------------


def read_triplets(text):
    """(rows, cols, columns) of a written triplet file: each column the
    sorted (row, entry) pairs, after the version and size header lines."""
    lines = text.splitlines()
    assert lines[0] == "format-version: 1"
    _, nrows, _, ncols = lines[1].split()
    cols = [[] for _ in range(int(ncols))]
    for ln in lines[2:]:
        r, c, v = map(int, ln.split())
        cols[c].append((r, v))
    return int(nrows), int(ncols), [sorted(col) for col in cols]
