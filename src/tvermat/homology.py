"""Exact reduced rational homology and the connectivity verifiers built on it.

Boundary matrices are sparse with entries +-1.  Every rank is exact: each
boundary map is eliminated as its transpose, the coboundary, with
division-free integer elimination, bottom-up with clearing (the twist of
Chen-Kerber 2011): the rows of the faces that led a pivot of one map are
skipped in the next.  Clearing needs only that the pivots are exact, so it
holds over Q, and one pass gives the rational Betti numbers, wherever the
integral homology has torsion too (chessboard complexes carry 3-torsion,
Shareshian-Wachs 2007).  No rank is taken modulo a prime: a prime dividing a
torsion coefficient would change a Betti number, and wrong Betti numbers
would manufacture false counterexamples.
"""

from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import gcd

from .errors import HypothesisViolation, InputError, PreconditionError
from .complexes import DEFAULT_FACE_CAP, deleted_join
from .packing import max_disjoint_bases, pack_into_independent, partition_almost_equal


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


def boundary_matrix(X, i):
    """Simplicial boundary from i-faces to (i-1)-faces.

    Vertices of each face are in increasing encoded order; omitting position j
    contributes sign (-1)^j.  i = 0 gives the augmentation onto the empty face.
    """
    if i < 0:
        raise InputError(f"boundary dimension must be >= 0, got {i}")
    if not X._materialized_to(i):
        raise PreconditionError(f"faces at dimension {i} not materialized")
    faces_i = X.faces(i)
    if i == 0:
        return SparseIntMatrix(1, len(faces_i), [[(0, 1)] for _ in faces_i])
    rows = {f: idx for idx, f in enumerate(X.faces(i - 1))}
    cols = []
    for face in faces_i:
        entries = []
        for j in range(len(face)):
            sub = face[:j] + face[j + 1 :]
            entries.append((rows[sub], -1 if j % 2 else 1))
        cols.append(sorted(entries))
    return SparseIntMatrix(len(rows), len(faces_i), cols)


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


def _coboundary_leads(mat, cleared):
    """Exact pivot leads of the boundary map ``mat``, eliminated as its
    transpose: one coboundary row per face of the lower dimension, keyed by
    the faces of the upper one.  The rows named in ``cleared`` are skipped.
    """
    rows = [{} for _ in range(mat.nrows)]
    for j, col in enumerate(mat.cols):
        for r, v in col:
            rows[r][j] = v
    return set(_rank_sparse_exact(
        [row for r, row in enumerate(rows) if r not in cleared]
    ))


@dataclass
class BettiVector:
    """Reduced rational Betti numbers beta_0..beta_D (augmented chain complex)."""

    betti: tuple
    up_to: int
    f_vector: tuple


def betti_reduced(X, up_to, exact_only=False):
    """Reduced Betti numbers of X through degree ``up_to``.

    Requires materialization through dimension up_to+1 (the image of the next
    boundary map).  Every rank is exact; each coboundary skips the rows that
    led a pivot of the map below it.  ``exact_only`` takes every rank on the
    boundary columns with no clearing: the reference the cleared pass is
    tested against.
    """
    if up_to < 0:
        raise InputError(f"up_to must be >= 0, got {up_to}")
    if not X._materialized_to(up_to + 1):
        raise PreconditionError(
            f"betti through {up_to} needs faces at dimension {up_to + 1}"
        )
    f = [len(X.faces(d)) for d in range(up_to + 2)]

    # Clearing: the rows of the faces that led a pivot of map i-1 are skipped
    # in map i.  The reduced row with lead c is a coboundary dx, and ddx = 0
    # puts the coboundary of c in the span over Q of the rows after it, so
    # the skipped rows leave the rank unchanged.
    ranks, leads = [], set()
    for i in range(up_to + 2):
        mat = boundary_matrix(X, i)
        if exact_only:
            ranks.append(len(_rank_sparse_exact([dict(col) for col in mat.cols])))
        else:
            leads = _coboundary_leads(mat, leads)
            ranks.append(len(leads))
    betti = [f[i] - ranks[i] - ranks[i + 1] for i in range(up_to + 1)]
    if any(b < 0 for b in betti):
        raise RuntimeError("negative Betti number: rank computation inconsistent")
    return BettiVector(tuple(betti), up_to, tuple(f[: up_to + 1]))


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
    nonempty = bool(X.faces(0))
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
    """The c-connectivity check of the deleted join of ``matroids``, built
    through dimension c+1; a bound below -1 is vacuous.  ``context`` is
    copied into the report."""
    if c < -1:
        rep = ConnectivityReport(c, True, note="bound below -1 is vacuous")
    else:
        rep = homologically_connected(deleted_join(matroids, max(c + 1, 0), cap), c)
    rep.context.update(context or {})
    return rep


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
    if any(len(grp) > m for grp in partition_almost_equal(b, k)):
        raise RuntimeError("a group holds more than m packed bases")
    c = (b * rho) // (m + 1) - 2
    context["m"] = m
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
    b, _, _ = max_disjoint_bases(M, deadline)
    c = k * rho - 2
    rep = join_connectivity([M] * k, c, cap, {"b": b, "rank": rho, "k": k, "target": c})
    return ConjectureRecord(b=b, rank=rho, k=k, target=c, verified=rep.verified,
                            report=rep)
