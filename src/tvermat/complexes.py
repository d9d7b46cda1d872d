"""Simplicial complexes: matroid independence complexes, deleted joins, chessboards.

Faces are sorted tuples of encoded vertex ids, stored per dimension in
lexicographic order; the empty face is implicit (f_{-1} = 1).  Complexes built
from k factors on a shared element space of size n carry labeled vertices
encoded as copy*n + element with 0-based copies.

Materialization is dimension-truncated: ``trunc`` is the largest dimension
enumerated, ``complete`` records whether any faces beyond it exist.  Counts at
each materialized dimension are exact.  A per-dimension face cap (default
5e6) turns combinatorial blowup into a distinct resource-limit error.  A
d-face costs 48 + 8(d+1) bytes, its list slot included (87 bytes a face for
C(6,8) through dimension 5), so a level of 5-faces at the cap holds 0.5 GB.
"""

from itertools import combinations

from .errors import InputError, PreconditionError, ResourceLimitError

DEFAULT_FACE_CAP = 5_000_000


def _check_cap(count, dim, cap):
    if cap is not None and count > cap:
        raise ResourceLimitError(
            f"face cap exceeded at dimension {dim}: {count} > {cap}",
            progress={"dimension": dim, "cap": cap},
        )


class SimplicialComplex:
    """Immutable materialized complex.

    faces_by_dim: dict dim -> lexicographically sorted list of sorted tuples.
    labels: (k, n) when vertices encode (copy, element) pairs, else None.
    """

    def __init__(self, n_labels, faces_by_dim, trunc, complete, labels=None):
        self.n_labels = n_labels
        self.faces_by_dim = {
            d: sorted(fs) for d, fs in faces_by_dim.items() if fs
        }
        self.trunc = trunc
        self.complete = complete
        self.labels = labels

    # -- queries -----------------------------------------------------------

    @property
    def dimension(self):
        """Largest materialized dimension carrying a face (-1 if none)."""
        return max(self.faces_by_dim, default=-1)

    def faces(self, dim):
        return self.faces_by_dim.get(dim, [])

    def all_faces(self):
        for d in sorted(self.faces_by_dim):
            yield from self.faces_by_dim[d]

    def f_vector(self):
        """(f_0, .., f_D) over materialized dimensions; f_{-1}=1 implicit."""
        top = self.dimension
        return tuple(len(self.faces(d)) for d in range(top + 1))

    def num_faces(self):
        return sum(len(fs) for fs in self.faces_by_dim.values())

    def euler_characteristic(self):
        """Non-reduced Euler characteristic; requires a complete complex."""
        if not self.complete:
            raise PreconditionError("Euler characteristic needs a complete complex")
        return sum((-1) ** d * len(fs) for d, fs in self.faces_by_dim.items())

    def _materialized_to(self, d):
        return self.complete or self.trunc >= d

    def __repr__(self):
        kind = "complete" if self.complete else f"trunc={self.trunc}"
        return f"SimplicialComplex(f={self.f_vector()}, {kind})"


def _close_down(facets):
    by_dim = {}
    seen = set()
    for facet in facets:
        facet = tuple(sorted(set(facet)))
        for k in range(1, len(facet) + 1):
            for sub in combinations(facet, k):
                if sub not in seen:
                    seen.add(sub)
                    by_dim.setdefault(k - 1, []).append(sub)
    return by_dim


def from_facets(n_labels, facets):
    """Complete complex generated by explicit facets (small inputs)."""
    by_dim = _close_down(facets)
    top = max(by_dim, default=-1)
    return SimplicialComplex(n_labels, by_dim, trunc=top, complete=True)


def full_simplex(num_vertices):
    """The full simplex on ``num_vertices`` vertices (num_vertices-1 dimensional)."""
    if num_vertices < 0:
        raise InputError("vertex count must be nonnegative")
    return from_facets(num_vertices, [tuple(range(num_vertices))])


def independent_sets(M, max_dim, cap=None):
    """Nonempty independent sets of M with at most max_dim+1 elements.

    Returns dim -> lexicographically sorted faces.  Faces of size s+1 extend
    faces of size s by a larger element, so enumeration is exhaustive by
    hereditarity; loops never appear.  A level is abandoned with a
    ResourceLimitError as soon as it holds more than ``cap`` faces.
    """
    by_dim = {}
    level = [()]
    for d in range(max_dim + 1):
        nxt = []
        for face in level:
            base = frozenset(face)
            for e in range(face[-1] + 1 if face else 0, M.n):
                if M._indep(base | {e}):
                    nxt.append(face + (e,))
                    if cap is not None and len(nxt) > cap:
                        _check_cap(len(nxt), d, cap)
        if not nxt:
            break
        by_dim[d] = level = nxt
    return by_dim


def as_complex(M, max_dim, cap=DEFAULT_FACE_CAP):
    """Independence complex of a matroid, materialized through ``max_dim``.

    Vertices are the non-loops; ``cap`` bounds the faces of each dimension.
    """
    if max_dim < -1:
        raise InputError(f"max_dim must be >= -1, got {max_dim}")
    by_dim = independent_sets(M, max_dim, cap)
    complete = max_dim >= M.rank() - 1
    return SimplicialComplex(M.n, by_dim, trunc=max_dim, complete=complete)


# -- joins --------------------------------------------------------------------


def _factor_faces_by_size(X, max_size):
    """Faces of a factor grouped by size 0..max_size (size 0 = empty face)."""
    out = {0: [()]}
    for s in range(1, max_size + 1):
        out[s] = list(X.faces(s - 1))
    return out


def _combine(factors, n, trunc, cap):
    """Enumerate union faces of the deleted join up to total size trunc+1."""
    k = len(factors)
    max_size = trunc + 1
    fac_faces = [_factor_faces_by_size(X, max_size) for X in factors]
    by_dim = {}
    counts = {}

    def emit(face):
        d = len(face) - 1
        by_dim.setdefault(d, []).append(tuple(sorted(face)))
        counts[d] = counts.get(d, 0) + 1
        _check_cap(counts[d], d, cap)

    def rec(i, used, acc, budget):
        if i == k:
            if acc:
                emit(acc)
            return
        faces_i = fac_faces[i]
        for s in range(0, budget + 1):
            for sigma in faces_i.get(s, ()):
                if not used.isdisjoint(sigma):
                    continue
                encoded = [i * n + e for e in sigma]
                rec(i + 1, used.union(sigma), acc + encoded, budget - s)

    rec(0, frozenset(), [], max_size)
    return by_dim


def deleted_join(factors, trunc=None, cap=DEFAULT_FACE_CAP):
    """Join faces whose parts are pairwise disjoint as subsets of the element
    space, on k labeled copies of it; ``deleted_join([X] * k)`` is the k-fold
    deleted join of X."""
    factors = list(factors)
    if not factors:
        raise InputError("need at least one factor")
    n = factors[0].n_labels
    for X in factors:
        if X.labels is not None:
            raise InputError("join factors must be plain complexes on the element space")
        if X.n_labels != n:
            raise InputError("join factors must share the element index space")
    if trunc is None:
        if not all(X.complete for X in factors):
            raise PreconditionError("untruncated join requires complete factors")
        trunc = sum(X.dimension + 1 for X in factors) - 1
    if trunc < -1:
        raise InputError(f"truncation must be >= -1, got {trunc}")
    for X in factors:
        # a single part may carry the whole budget: factor faces up to dim trunc
        if not X._materialized_to(trunc):
            raise PreconditionError(
                f"factor materialized to {X.trunc} cannot support join truncation {trunc}"
            )
    by_dim = _combine(factors, n, trunc, cap)
    if all(X.complete for X in factors):
        bound = sum(X.dimension + 1 for X in factors) - 1
        complete = trunc >= bound
    else:
        complete = False
    # down-closure: an empty materialized top dimension certifies completeness
    if not complete and trunc >= 0 and not by_dim.get(trunc):
        complete = True
    k = len(factors)
    return SimplicialComplex(k * n, by_dim, trunc=trunc, complete=complete,
                             labels=(k, n))


def matroid_deleted_join(matroids, trunc, cap=DEFAULT_FACE_CAP):
    """Deleted join of matroid independence complexes, truncated at ``trunc``."""
    mats = list(matroids)
    n = mats[0].n
    if any(M.n != n for M in mats):
        raise InputError("matroids must share the ground set")
    factors = [as_complex(M, trunc, cap) for M in mats]
    return deleted_join(factors, trunc, cap)


# -- chessboard and colourful families ---------------------------------------


def chessboard(k, m, trunc=None, cap=DEFAULT_FACE_CAP):
    """Chessboard complex C(k, m): partial placements of non-attacking rooks.

    Vertices are (row, column) cells encoded row*m + column, matching the
    labeled encoding of the k-fold deleted join of the rank-1 matroid on m
    points (face-for-face equality is a tested invariant, not an assumption).
    """
    if k < 1 or m < 1:
        raise InputError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    if trunc is not None and trunc < -1:
        raise InputError(f"max_dim must be >= -1, got {trunc}")
    top = min(k, m) - 1 if trunc is None else min(trunc, min(k, m) - 1)
    by_dim = {}
    level = [((), 0, 0)]
    for d in range(top + 1):
        nxt = []
        for face, rows, cols in level:
            for v in range(face[-1] + 1 if face else 0, k * m):
                r, c = 1 << (v // m), 1 << (v % m)
                if not (rows & r) and not (cols & c):
                    nxt.append((face + (v,), rows | r, cols | c))
                    if cap is not None and len(nxt) > cap:
                        _check_cap(len(nxt), d, cap)
        if not nxt:
            break
        by_dim[d] = [face for face, _, _ in nxt]
        level = nxt
    complete = top == min(k, m) - 1
    return SimplicialComplex(k * m, by_dim, trunc=top, complete=complete,
                             labels=(k, m))
