"""Exact reduced rational homology and the connectivity verifiers built on it.

Boundary matrices are sparse with entries +-1.  Ranks are first computed over
a large prime field.  That is a sound *vanishing* certificate: the mod-p
defect bounds the rational Betti number from above, and Betti numbers are
nonnegative.  The mod-p filter eliminates the coboundary, bottom-up with
clearing: the rows of the faces that led a pivot of one map are skipped in
the next.

Any apparent nonvanishing is confirmed with exact division-free integer
elimination on the boundary columns, with pair clearing: the rank of map i+1
comes first, and its pivot leads name columns of map i that are dependent
over Q.  Only exact pivots may clear an exact rank: a mod-p pivot shows a
dependence mod p only, and rows dependent mod p can be independent over Q
wherever p divides a torsion coefficient (chessboard complexes carry
3-torsion).  Wrong Betti numbers would manufacture false counterexamples, so
the exact route is never skipped when it matters.
"""

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import HypothesisViolation, InputError, PreconditionError
from .complexes import DEFAULT_FACE_CAP, deleted_join
from .packing import max_disjoint_bases, pack_into_independent, partition_almost_equal

FILTER_PRIME = (1 << 31) - 1  # Mersenne prime; mod-p ranks as a pre-filter


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


def _reduce_rows(rows, combine):
    """Leading-column reduction on sparse rows (dicts col -> value).

    Rows are bucketed by leading (minimum) column; each pivot clears its
    column from the cohabiting rows, whose new leading columns are strictly
    larger, so columns are processed once, in ascending (canonical) order.
    Pivot choice within a bucket: fewest entries, first among ties.
    Returns the leading columns of the pivots, ascending; their number is
    the rank.
    """
    buckets = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    heap = sorted(buckets)
    heapify(heap)
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
            nr = combine(pivot, r, c)
            if nr:
                mc = min(nr)
                if mc not in buckets:
                    heappush(heap, mc)
                    buckets[mc] = []
                buckets[mc].append(nr)
    return leads


def _rank_sparse_mod_p(rows, p):
    """Pivot leads mod p of sparse integer rows (dicts col -> value, each
    value nonzero mod p)."""
    inverse = {}  # pivot column -> inverse of the pivot's leading entry

    def combine(pivot, r, c):
        inv = inverse.get(c)
        if inv is None:
            inv = inverse[c] = pow(pivot[c], p - 2, p)
        m = r[c] * inv % p
        nr = dict(r)
        for col, v in pivot.items():
            nv = (nr.get(col, 0) - m * v) % p
            if nv:
                nr[col] = nv
            else:
                nr.pop(col, None)
        return nr

    return _reduce_rows(rows, combine)


def _rank_sparse_exact(rows):
    """Pivot leads over Q of sparse integer rows (dicts col -> nonzero value):
    division-free combination with gcd normalization to keep entries small."""

    def combine(pivot, r, c):
        a, b = pivot[c], r[c]
        g = gcd(a, b)
        ca, cb = a // g, b // g
        nr = dict(r) if ca == 1 else {col: ca * v for col, v in r.items()}
        for col, v in pivot.items():
            nv = nr.get(col, 0) - cb * v
            if nv:
                nr[col] = nv
            else:
                nr.pop(col, None)
        gg = 0
        for v in nr.values():
            gg = gcd(gg, v)
            if gg == 1:
                return nr
        return {col: v // gg for col, v in nr.items()}

    return _reduce_rows(rows, combine)


def _coboundary_leads(mat, cleared, p):
    """Mod-p pivot leads of the boundary map ``mat`` (None if it has no
    columns), eliminated as its transpose: one coboundary row per face of the
    lower dimension, keyed by the faces of the upper one.  The rows named in
    ``cleared`` are skipped.
    """
    if mat is None:
        return set()
    rows = [{} for _ in range(mat.nrows)]
    for j, col in enumerate(mat.cols):
        for r, v in col:
            rows[r][j] = v
    return set(_rank_sparse_mod_p(
        [row for r, row in enumerate(rows) if r not in cleared], p
    ))


def _boundary_leads(mat, cleared):
    """Exact pivot leads of the boundary map ``mat`` (None if it has no
    columns), eliminated on its columns; the columns named in ``cleared``
    are skipped.
    """
    if mat is None:
        return set()
    return set(_rank_sparse_exact(
        [dict(col) for j, col in enumerate(mat.cols) if j not in cleared]
    ))


@dataclass
class BettiVector:
    """Reduced rational Betti numbers beta_0..beta_D (augmented chain complex)."""

    betti: tuple
    up_to: int
    f_vector: tuple
    exact_confirmations: int = 0


def betti_reduced(X, up_to, exact_only=False):
    """Reduced Betti numbers of X through degree ``up_to``.

    Requires materialization through dimension up_to+1 (the image of the next
    boundary map).  Mod-p ranks certify zeros outright; any apparent
    nonvanishing is recomputed with exact integer elimination.
    ``exact_only`` computes every rank exactly with no clearing: the
    reference the fast path is tested against.
    """
    if up_to < 0:
        raise InputError(f"up_to must be >= 0, got {up_to}")
    if not X._materialized_to(up_to + 1):
        raise PreconditionError(
            f"betti through {up_to} needs faces at dimension {up_to + 1}"
        )
    f = [len(X.faces(d)) for d in range(up_to + 2)]

    # The mod-p filter runs bottom-up with clearing: the rows of the faces
    # that led a pivot of map i-1 are skipped in map i.  The reduced row with
    # lead c is a coboundary dx, and ddx = 0 puts the coboundary of c in the
    # span of the rows after it, so the skipped rows leave the rank unchanged.
    mats, ranks, leads = [], [], set()
    for i in range(up_to + 2):
        mats.append(boundary_matrix(X, i) if f[i] else None)
        if exact_only:
            ranks.append(len(_boundary_leads(mats[i], ())))
        else:
            leads = _coboundary_leads(mats[i], leads, FILTER_PRIME)
            ranks.append(len(leads))
    betti = [f[i] - ranks[i] - ranks[i + 1] for i in range(up_to + 1)]
    confirmations = 0
    if not exact_only:
        exact = {}  # dimension -> exact pivot leads of its boundary map

        def exact_rank(i):
            # pair clearing: the exact leads of map i+1, when known, name
            # columns of map i that dd = 0 makes dependent over Q
            nonlocal confirmations
            if i not in exact:
                exact[i] = _boundary_leads(mats[i], exact.get(i + 1, ()))
                confirmations += 1
            return len(exact[i])

        for i in range(up_to + 1):
            if betti[i] > 0:
                upper = exact_rank(i + 1)
                betti[i] = f[i] - exact_rank(i) - upper
    if any(b < 0 for b in betti):
        raise RuntimeError("negative Betti number: rank computation inconsistent")
    return BettiVector(tuple(betti), up_to, tuple(f[: up_to + 1]),
                       exact_confirmations=confirmations)


@dataclass
class ConnectivityReport:
    """Outcome of a homological c-connectivity check."""

    bound: int
    verified: bool
    vanishing: tuple  # flags for degrees 0..bound
    first_nonvanishing: int | None
    f_vector: tuple
    num_faces: int
    betti_checked: tuple
    exact_confirmations: int = 0
    note: str = ""
    context: dict = field(default_factory=dict)

    def to_payload(self):
        out = {
            "bound": self.bound,
            "verified": self.verified,
            "vanishing": list(self.vanishing),
            "first_nonvanishing": self.first_nonvanishing,
            "f_vector": [1, *self.f_vector],
            "num_faces": self.num_faces,
            "betti_checked": list(self.betti_checked),
            "exact_confirmations": self.exact_confirmations,
        }
        if self.note:
            out["note"] = self.note
        if self.context:
            out["context"] = dict(self.context)
        return out


def _vacuous_report(bound, note, context=None):
    """The verified report of a bound that asks for nothing."""
    return ConnectivityReport(
        bound=bound, verified=True, vanishing=(), first_nonvanishing=None,
        f_vector=(), num_faces=0, betti_checked=(), note=note,
        context=context or {},
    )


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
    fvec = X.f_vector()
    nfaces = X.num_faces()
    if c == -1:
        return ConnectivityReport(
            bound=c,
            verified=nonempty,
            vanishing=(),
            first_nonvanishing=None,
            f_vector=fvec,
            num_faces=nfaces,
            betti_checked=(),
            note="" if nonempty else "complex is empty",
        )
    if not nonempty:
        return ConnectivityReport(
            bound=c, verified=False, vanishing=tuple(False for _ in range(c + 1)),
            first_nonvanishing=0, f_vector=fvec, num_faces=nfaces,
            betti_checked=(), note="complex is empty",
        )
    bv = betti_reduced(X, c)
    flags = tuple(b == 0 for b in bv.betti)
    first_bad = next((i for i, ok in enumerate(flags) if not ok), None)
    return ConnectivityReport(
        bound=c,
        verified=all(flags),
        vanishing=flags,
        first_nonvanishing=first_bad,
        f_vector=fvec,
        num_faces=nfaces,
        betti_checked=bv.betti,
        exact_confirmations=bv.exact_confirmations,
    )


def join_connectivity(matroids, c, cap=DEFAULT_FACE_CAP, context=None):
    """The c-connectivity check of the deleted join of ``matroids``, built
    through dimension c+1; a bound below -1 is vacuous.  ``context`` is
    copied into the report."""
    if c < -1:
        rep = _vacuous_report(c, "bound below -1 is vacuous")
    else:
        rep = homologically_connected(deleted_join(matroids, max(c + 1, 0), cap), c)
    rep.context.update(context or {})
    return rep


def _ceil_div(a, b):
    return -(-a // b)


def verify_claim(matroids, sets, m, cap=DEFAULT_FACE_CAP):
    """Verify the deleted-join connectivity bound for matroids M_1..M_k and
    pairwise disjoint sets A_1..A_k, each a union of at most m independent
    sets of its matroid.

    Hypotheses are validated first (disjointness; coverability via the union
    algorithm, raising HypothesisViolation with an exact certificate).  The
    bound is c = ceil(sum |A_i| / (m+1)) - 2; the deleted join is materialized
    through dimension c+1 and checked homologically.
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
        res = pack_into_independent(M, A, m)
        if not isinstance(res, list):
            raise HypothesisViolation(
                f"a set is not a union of {m} independent sets",
                certificate=res,
            )
    total = sum(len(A) for A in sets)
    c = _ceil_div(total, m + 1) - 2
    return join_connectivity(matroids, c, cap, {"k": len(matroids), "m": m, "total": total})


def verify_corollary(M, k, cap=DEFAULT_FACE_CAP):
    """Verify the packing-derived connectivity bound for the k-fold deleted join.

    Computes b = b(M), partitions the packed bases into k almost equal groups
    (sizes within floor/ceil of b/k), and checks the floor of
    b*rank/(ceil(b/k)+1) - 2; "connectivity >= x" for real x means i-connected
    for every integer i <= x, so flooring is the faithful integer reading.
    """
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    b, packing, _ = max_disjoint_bases(M)
    rho = M.rank()
    context = {"b": b, "rank": rho, "k": k}
    if b == 0:
        return _vacuous_report(-2, "rank-0 matroid: bound is vacuous", context)
    groups = partition_almost_equal(b, k)
    unions = [
        frozenset().union(*(packing.bases[j - 1] for j in grp)) if grp else frozenset()
        for grp in groups
    ]
    m = _ceil_div(b, k)
    # hypothesis re-check: each union splits into at most m independent sets
    for A in unions:
        res = pack_into_independent(M, A, m)
        if not isinstance(res, list):
            raise RuntimeError("base packing failed its own coverability re-check")
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


def conjecture_scan(M, k, cap=DEFAULT_FACE_CAP):
    """Check whether the k-fold deleted join is (k*rank - 2)-connected and
    record it together with b(M); accumulating such records over a matroid
    family is the evidence-gathering mode for the conjectured threshold."""
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    rho = M.rank()
    b, _, _ = max_disjoint_bases(M)
    c = k * rho - 2
    rep = join_connectivity([M] * k, c, cap, {"b": b, "rank": rho, "k": k, "target": c})
    return ConjectureRecord(b=b, rank=rho, k=k, target=c, verified=rep.verified,
                            report=rep)
