"""Exact reduced rational homology and the connectivity verifiers built on it.

Betti numbers come from a discrete Morse reduction of X relative to U, the
union of the closed stars of the vertices in F: the first vertex v1, and for
a deleted join built relative also, in each later copy of rank >= 2, the
vertex of the least non-loop element F does not use yet (``deleted_join``).
Vertices of distinct copies with distinct elements span a face, so the stars
of any of them meet in the star of a face, a cone, and U is contractible by
the nerve theorem (Bjorner 1995).  Through dimension top it is a subcomplex
L with H~_j(L) = 0 for j < top, so H_i(X, L) = H~_i(X) for i < top, and the
chains are the faces s holding no v in F with s + v no face.  Rank-1 copies
stay out of F, which would leave more critical cells on chessboards.  The
element matching (Jonsson 2008, *Simplicial Complexes of Graphs*, LNM 1928)
would pair the star of v1 first, so it runs on the chains from the second
vertex on: each vertex v in ascending order pairs each unmatched face s
without v with s + v when that face is unmatched too.  Its acyclicity is
re-checked by a topological order of the modified Hasse graph, so the Morse
complex on the unpaired (critical) faces has the integral homology of the
pair (Forman 1998).  Its boundary flows along gradient paths, every step a
+-1 pivot, so its entries stay integers.

Every rank is exact: each boundary map is eliminated as its transpose, the
coboundary, with division-free integer elimination, bottom-up with clearing
(the twist of Chen-Kerber 2011): the rows of the faces that led a pivot of
one map are skipped in the next.  Clearing needs only that the pivots are
exact, so it holds over Q, and one pass gives the rational Betti numbers,
wherever the integral homology has torsion too (chessboard complexes carry
3-torsion, Shareshian-Wachs 2007).  No rank is taken modulo a prime: a prime
dividing a torsion coefficient would change a Betti number, and wrong Betti
numbers would manufacture false counterexamples.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, combinations
from math import gcd

from .errors import HypothesisViolation, InputError, PreconditionError
from .complexes import DEFAULT_FACE_CAP, _check_cap, deleted_join, off_star
from .packing import max_disjoint_bases, pack_into_independent


@dataclass
class SparseIntMatrix:
    """Column-major sparse integer matrix; columns hold (row, entry) pairs."""

    nrows: int
    ncols: int
    cols: list

    def triplets(self):
        for j, col in enumerate(self.cols):
            for r, v in col:
                yield r, j, v


def _facets(face):
    """An iterator of the (facet, sign) pairs of a nonempty k-face: omitting
    position j has sign (-1)^j.  ``combinations`` omits the last position
    first, so the facets come in lexicographic order, signed (-1)^(k-1), .., 1."""
    k = len(face)
    return zip(combinations(face, k - 1), ((-1, 1) * k)[k:])


def boundary_matrix(X, i):
    """Simplicial boundary from i-faces to (i-1)-faces.

    Vertices of each face are in increasing encoded order; omitting position j
    contributes sign (-1)^j.  i = 0 gives the augmentation onto the empty face.
    """
    if i < 0:
        raise InputError(f"boundary dimension must be >= 0, got {i}")
    if X.vertices or not X._materialized_to(i):
        raise PreconditionError(f"faces at dimension {i} not materialized")
    faces_i = X.faces(i)
    if i == 0:
        return SparseIntMatrix(1, len(faces_i), [[(0, 1)] for _ in faces_i])
    rows = {f: idx for idx, f in enumerate(X.faces(i - 1))}
    cols = [sorted((rows[sub], sign) for sub, sign in _facets(face)) for face in faces_i]
    return SparseIntMatrix(len(rows), len(faces_i), cols)


def _element_matching(X, top):
    """The element matching on the faces of X of dimensions -1..top off U:
    a stored X is cut off the star of its first vertex v1, and a raise
    checks that no face of a relative X holds a vertex of F, v1 the first
    of each level.

    For each later vertex v in ascending order, every unmatched face s
    without v is paired with t = s + v when t is an unmatched face too.  A
    face waits at one vertex: its first, then, while t is free but t - v is
    taken, the vertex after v.  On its first visit t starts with v, since
    v1's star is cut and the vertices ascend, so t - v is its tail, of sign
    +1; only a requeued face looks v up.  It leaves once matched, or once
    its size or the size below has no free face left: free sets only
    shrink.  A stage's pairs (t - v, t) are disjoint, so its visiting order
    is free.  Returns ``up`` and ``critical`` by face size k = dimension +
    1: up[k] maps each paired k-face s to (t, sign of s in the boundary of
    t), and critical[k] lists the unpaired k-faces in lexicographic order.
    """
    vertices = X.vertices or [v for (v,) in X.faces(0)]
    levels = [[()]] + [X.faces(d) for d in range(top + 2)]
    if X.vertices and any(level and level[0][0] == vertices[0] for level in levels[1:]):
        raise RuntimeError(f"a stored face holds the first vertex {vertices[0]}")
    others = (X.apexes or [])[1:]
    held = others and set(others).intersection(chain.from_iterable(chain.from_iterable(levels)))
    if held:
        raise RuntimeError(f"a stored face holds the apex {min(held)}")
    levels = off_star(levels, vertices[0]) if vertices else levels[:-1]
    free = [set(level) for level in levels]
    up = [{} for _ in levels]
    waiting = [{} for _ in levels]  # k -> vertex -> the k-faces queued there
    start = [0] * len(levels)  # k -> the first k-face not yet in a bucket
    for v in vertices[1:]:
        for k in range(1, top + 2):
            level, lower, upper = levels[k], free[k - 1], free[k]
            lo, start[k] = start[k], bisect_left(level, (v + 1,), start[k])
            queued = waiting[k].pop(v, ())
            if not (lower and upper):
                continue
            for t in level[lo:start[k]]:  # v first: v1's star is cut, vertices ascend
                if t in upper:
                    s = t[1:]
                    if s in lower:
                        lower.remove(s)
                        upper.remove(t)
                        up[k - 1][s] = (t, 1)
                    elif k > 1:
                        waiting[k].setdefault(t[1], []).append(t)
            for t in queued:
                if t in upper:
                    i = t.index(v)
                    s = t[:i] + t[i + 1:]
                    if s in lower:
                        lower.remove(s)
                        upper.remove(t)
                        up[k - 1][s] = (t, -1 if i % 2 else 1)
                    elif i + 1 < k:
                        waiting[k].setdefault(t[i + 1], []).append(t)
    # a filter walks the level, a sort costs about log2 of the cells a cell
    return up, [sorted(cells) if len(cells) * len(cells).bit_length() < len(level)
                else [t for t in level if t in cells] for level, cells in zip(levels, free)]


def _morse_map(pairs, rows, cells):
    """The Morse boundary from the critical faces ``cells`` to the critical
    faces ``rows``, one size down, as its coboundary rows: one dict per row,
    cell index -> nonzero entry, filled in cell order ([] for no row).
    ``pairs`` is the matching between those two sizes, each paired face
    s -> (its partner t, the sign [t:s]).

    Each face is hashed once, to an index: a paired face its place 0..P-1 in
    ``pairs``, a critical one P + its row.  A gradient path steps from a
    paired s, through t, to each other facet r of t with coefficient
    -[t:s][t:r], a +-1 pivot; ``steps[i]`` lists the indices of those r
    with it, walked once through ``combinations``: a facet paired
    downward, or one of U, which is no chain of the pair, ends its
    paths.  A directed cycle of the modified Hasse graph (each pair's edge
    reversed) stays within two adjacent dimensions, so a Kahn order over the
    pairs of each size, s before every paired face it steps to, certifies
    that the whole matching is acyclic; a cycle raises RuntimeError.  Where
    the paths from a face end, its ``flow`` (a row's own unit), is built in
    reverse order for each paired face from its steps' flows (the first
    one's copied), then for each cell from its facets' flows, which is its
    column, spread over the rows.
    """
    index = {face: i for i, face in enumerate(chain(pairs, rows))}
    npairs, k = len(pairs), len(next(iter(pairs), ()))
    signs = ((-1, 1) * (k + 1))[k + 1:]  # as in _facets, for the (k+1)-faces t
    steps, indegree, get = [], [0] * npairs, index.get
    flips = {1: [-e for e in signs], -1: signs}  # -[t:s][t:r] by the pair's sign [t:s]
    for i, (t, sign) in enumerate(pairs.values()):
        steps.append(walk := [])
        for r, e in zip(combinations(t, k), flips[sign]):
            j = get(r, i)  # a facet with no index reads as s: skipped
            if j != i:
                walk.append((j, e))
                if j < npairs:
                    indegree[j] += 1
    order = [i for i, n in enumerate(indegree) if not n]
    for i in order:  # grows while it is walked
        for j, _ in steps[i]:
            if j < npairs:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
    if len(order) < npairs:
        raise RuntimeError(f"matching has a cycle: {npairs - len(order)} pairs of "
                           f"size-{k} faces are not ordered")
    if not rows:
        return []
    flow = [None] * npairs + [{r: 1} for r in range(len(rows))]

    def flowed(walk):  # the first step's flow is copied, not summed into {}
        if not walk:
            return {}
        (j, e), *rest = walk
        acc = dict(flow[j]) if e == 1 else {r: -v for r, v in flow[j].items()}
        for j, e in rest:
            for r, v in flow[j].items():
                acc[r] = acc.get(r, 0) + e * v
        return {r: v for r, v in acc.items() if v} if rest else acc
    for i in reversed(order):  # no step: the paths end at once, with no call
        flow[i] = flowed(walk) if (walk := steps[i]) else {}
    out = [{} for _ in rows]
    for c, cell in enumerate(cells):
        for r, v in flowed([(j, e) for f, e in _facets(cell) if (j := get(f)) is not None]).items():
            out[r][c] = v
    return out


def _rank_sparse_exact(rows):
    """Pivot leads over Q of sparse integer rows (dicts col -> nonzero value).

    Rows are bucketed by leading (minimum) column; each pivot clears its
    column from the cohabiting rows by division-free combination, with gcd
    normalization to keep entries small.  Their new leading columns are
    strictly larger, so columns are processed once, in ascending (canonical)
    order.  Pivot choice within a bucket: fewest entries, first among ties.
    Returns the leading columns of the pivots, ascending; their number is
    the rank.
    """
    buckets = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    heap = sorted(buckets)  # a sorted list is a heap
    leads = []
    while heap:
        c = heappop(heap)
        group = buckets.pop(c, None)
        if not group:
            continue
        pi = min(range(len(group)), key=lambda i: len(group[i]))
        pivot = group[pi]
        leads.append(c)
        for idx, r in enumerate(group):
            if idx == pi:
                continue
            g = gcd(pivot[c], r[c])
            ca, cb = pivot[c] // g, r[c] // g
            nr = dict(r) if ca == 1 else {col: ca * v for col, v in r.items()}
            for col, v in pivot.items():
                nv = nr.get(col, 0) - cb * v
                if nv:
                    nr[col] = nv
                else:
                    nr.pop(col, None)
            if not nr:
                continue
            gg = 0
            for v in nr.values():
                gg = gcd(gg, v)
                if gg == 1:
                    break
            else:
                nr = {col: v // gg for col, v in nr.items()}
            mc = min(nr)
            if mc not in buckets:
                heappush(heap, mc)
                buckets[mc] = []
            buckets[mc].append(nr)
    return leads


@dataclass
class BettiVector:
    """Reduced rational Betti numbers beta_0..beta_D (augmented chain complex)."""

    betti: tuple
    up_to: int
    f_vector: tuple


def _morse_complex(X, top):
    """The Morse complex of the element matching on the faces of X of
    dimensions -1..top off U: the critical faces by size (dimension + 1)
    and the boundary maps as ``_morse_map`` rows, maps[i] from critical
    i-faces to critical (i-1)-faces for i = 0..top.  A facet in U is no
    chain, so it drops out of every boundary; a map into no critical face is
    not flowed.
    """
    up, critical = _element_matching(X, top)
    maps = [_morse_map(up[k], critical[k], critical[k + 1]) for k in range(top + 1)]
    return critical, maps


def betti_reduced(X, up_to):
    """Reduced Betti numbers of X through degree ``up_to``.

    Requires materialization through dimension up_to+1 (the image of the next
    boundary map); faces above it are ignored.  X may be stored or built
    relative.  The ranks are taken on the Morse complex of the element
    matching on the faces off U through dimension up_to+1, or the dimension
    of X if that is lower (the Betti numbers above it are 0), so beta_i =
    c_i - rank d_i - rank d_(i+1), c_i the critical i-faces.  Every rank is
    exact, on a map's coboundary rows less those that led a pivot below it.
    """
    if up_to < 0:
        raise InputError(f"up_to must be >= 0, got {up_to}")
    if not X._materialized_to(up_to + 1):
        raise PreconditionError(
            f"betti through {up_to} needs faces at dimension {up_to + 1}"
        )
    top = min(up_to, X.dimension)  # every Betti number above it is 0
    critical, maps = _morse_complex(X, top + 1)
    cells = [len(faces) for faces in critical[1:]]
    # Clearing: the rows of the faces that led a pivot of map i-1 are
    # skipped in map i.  The reduced row with lead c is a coboundary dx,
    # and ddx = 0 puts the coboundary of c in the span over Q of the rows
    # after it, so the skipped rows leave the rank unchanged.
    ranks, leads = [], set()
    for rows in maps:
        leads = set(_rank_sparse_exact([row for r, row in enumerate(rows) if r not in leads]))
        ranks.append(len(leads))
    betti = [cells[i] - ranks[i] - ranks[i + 1] for i in range(top + 1)] + [0] * (up_to - top)
    if any(b < 0 for b in betti):
        raise RuntimeError("negative Betti number: rank computation inconsistent")
    return BettiVector(tuple(betti), up_to, (X.f_vector() + (0,) * (up_to + 1))[: up_to + 1])


@dataclass
class ConnectivityReport:
    """Outcome of a homological c-connectivity check; the defaults are those
    of a bound that asks for nothing."""

    bound: int
    verified: bool
    vanishing: tuple = ()  # flags for degrees 0..bound
    first_nonvanishing: int | None = None
    f_vector: tuple = ()
    num_faces: int = 0
    betti_checked: tuple = ()
    note: str = ""
    context: dict = field(default_factory=dict)

    def to_payload(self):
        """The fields with f_-1 = 1 prepended; an empty note or context is left out."""
        out = {key: value for key, value in vars(self).items()
               if value or key not in ("note", "context")}
        out["f_vector"] = (1, *self.f_vector)
        return out


def homologically_connected(X, c):
    """Check the homological shadow of c-connectedness: reduced Betti numbers
    vanish through degree c, on a nonempty complex.

    c = -1 asks for nonemptiness only.  This is a necessary consequence of
    topological c-connectivity, hence a valid falsification test; it does not
    check the homotopy-level converse.
    """
    if c < -1:
        raise InputError(f"connectivity bound must be >= -1, got {c}")
    nonempty = bool(X.f_vector())
    betti = betti_reduced(X, c).betti if nonempty and c >= 0 else ()
    flags = tuple(b == 0 for b in betti) if nonempty else (False,) * (c + 1)
    return ConnectivityReport(
        bound=c,
        verified=nonempty and all(flags),
        vanishing=flags,
        first_nonvanishing=next((i for i, ok in enumerate(flags) if not ok), None),
        f_vector=X.f_vector(),
        num_faces=X.num_faces(),
        betti_checked=betti,
        note="" if nonempty else "complex is empty",
    )


def join_connectivity(matroids, c, cap=DEFAULT_FACE_CAP, context=None):
    """The c-connectivity check of the deleted join of ``matroids`` through
    dimension c+1, built relative for k >= 2 copies; a bound below -1 is
    vacuous.  ``context`` is copied into the report."""
    if c < -1:
        rep = ConnectivityReport(c, True, note="bound below -1 is vacuous")
    else:
        rep = homologically_connected(deleted_join(matroids, max(c + 1, 0), cap, True), c)
    rep.context.update(context or {})
    return rep


def _fold_caps(M, k, c, cap):
    """Before k copies of M are listed for a check through degree c, f_0 =
    k * l for the l non-loops meets the cap, as in ``deleted_join``, and so
    does f_1 >= C(k, 2) * l * (l - 1) when edges are built: two distinct
    non-loops in two copies always form an edge."""
    if c >= -1 and k * M.n > cap or c >= 0 and k * (k - 1) * M.n * M.n > 2 * cap:
        ell = len(M._extensions(()))
        _check_cap(k * ell, 0, cap)
        if c >= 0:
            _check_cap(k * (k - 1) // 2 * ell * (ell - 1), 1, cap)


def _ceil_div(a, b):
    return -(-a // b)


def verify_claim(matroids, sets, m, cap=DEFAULT_FACE_CAP, deadline=None):
    """Verify the deleted-join connectivity bound for matroids M_1..M_k and
    pairwise disjoint sets A_1..A_k, each a union of at most m independent
    sets of its matroid.

    Hypotheses are validated first (disjointness; coverability via the union
    algorithm, raising HypothesisViolation with an exact certificate).  The
    bound is c = ceil(sum |A_i| / (m+1)) - 2; the deleted join is materialized
    through dimension c+1 and checked homologically.  ``deadline`` (a
    ``time.monotonic()`` instant) bounds the cover step.
    """
    matroids = list(matroids)
    sets = [frozenset(A) for A in sets]
    if len(matroids) != len(sets) or not matroids:
        raise InputError("need one set per matroid")
    if m < 1:
        raise InputError(f"m must be positive, got {m}")
    used = set()
    for A in sets:
        if used & A:
            raise HypothesisViolation(
                "sets are not pairwise disjoint", certificate=sorted(used & A)
            )
        used |= A
    for M, A in zip(matroids, sets):
        res = pack_into_independent(M, A, m, deadline)
        if not isinstance(res, list):
            raise HypothesisViolation(
                f"a set is not a union of {m} independent sets",
                certificate=res,
            )
    total = sum(len(A) for A in sets)
    c = _ceil_div(total, m + 1) - 2
    return join_connectivity(matroids, c, cap, {"k": len(matroids), "m": m, "total": total})


def verify_corollary(M, k, cap=DEFAULT_FACE_CAP, deadline=None):
    """Verify the packing-derived connectivity bound for the k-fold deleted join.

    Computes b = b(M), partitions the packed bases into k almost equal groups
    (sizes within floor/ceil of b/k), and checks the floor of
    b*rank/(ceil(b/k)+1) - 2; "connectivity >= x" for real x means i-connected
    for every integer i <= x, so flooring is the faithful integer reading.
    ``deadline`` bounds the packing step.
    """
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    b, _, _ = max_disjoint_bases(M, deadline)
    rho = M.rank()
    context = {"b": b, "rank": rho, "k": k}
    if b == 0:
        return ConnectivityReport(-2, True, note="rank-0 matroid: bound is vacuous",
                                  context=context)
    m = _ceil_div(b, k)
    # the packed bases are checked disjoint independent sets, so a group of
    # at most m of them is a union of at most m independent sets
    q, r = divmod(b, k)  # r groups of q + 1 bases, k - r of q
    if q + (r > 0) > m:
        raise RuntimeError("a group holds more than m packed bases")
    c = (b * rho) // (m + 1) - 2
    context["m"] = m
    _fold_caps(M, k, c, cap)
    return join_connectivity([M] * k, c, cap, context)


@dataclass
class ConjectureRecord:
    """Evidence row for the deleted-join connectivity conjecture."""

    b: int
    rank: int
    k: int
    target: int
    verified: bool
    report: ConnectivityReport


def conjecture_scan(M, k, cap=DEFAULT_FACE_CAP, deadline=None):
    """Check whether the k-fold deleted join is (k*rank - 2)-connected and
    record it together with b(M); accumulating such records over a matroid
    family is the evidence-gathering mode for the conjectured threshold.
    ``deadline`` bounds the packing step."""
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    rho = M.rank()
    c = k * rho - 2
    _fold_caps(M, k, c, cap)  # the bound needs no b, and a cap report carries none
    b, _, _ = max_disjoint_bases(M, deadline)
    rep = join_connectivity([M] * k, c, cap, {"b": b, "rank": rho, "k": k, "target": c})
    return ConjectureRecord(b=b, rank=rho, k=k, target=c, verified=rep.verified,
                            report=rep)
