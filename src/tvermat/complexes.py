"""Simplicial complexes: matroid independence complexes, their deleted joins,
chessboards.

Faces are sorted tuples of encoded vertex ids, stored per dimension in
lexicographic order; the empty face is implicit (f_{-1} = 1).  A deleted join
of k matroids on a ground set of size n has the labeled vertices
copy*n + element with 0-based copies.  One builder, ``deleted_join``, makes
every complex from matroids: the independence complex is its one-factor case
and the chessboard C(k, m) is the k-fold deleted join of U(1, m) by
construction.

Materialization is dimension-truncated: ``trunc`` is the largest dimension
enumerated, ``complete`` records whether any faces beyond it exist.  Counts at
each materialized dimension are exact.  A per-dimension face cap (default
5e6) turns combinatorial blowup into a distinct resource-limit error; levels
fill in order, so it names the lowest over-full dimension.  A d-face costs
48 + 8(d+1) bytes, its list slot included (87 bytes a face for C(6,8) through
dimension 5), so a level of 5-faces at the cap holds 0.5 GB.
"""

from bisect import bisect_left
from itertools import chain, combinations
from math import inf

from .errors import InputError, PreconditionError, ResourceLimitError
from .matroids import UniformMatroid

DEFAULT_FACE_CAP = 5_000_000


def _check_cap(count, dim, cap):
    if cap is not None and count > cap:
        raise ResourceLimitError(
            f"face cap exceeded at dimension {dim}: {count} > {cap}",
            progress={"dimension": dim, "cap": cap},
        )


class SimplicialComplex:
    """Immutable materialized complex.

    faces_by_dim: dict dim -> lexicographically sorted list of sorted tuples;
    builders hand their levels over already sorted.
    """

    def __init__(self, faces_by_dim, trunc, complete):
        self.faces_by_dim = faces_by_dim
        self.trunc = trunc
        self.complete = complete

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


def from_facets(facets):
    """Complete complex generated by explicit facets (small inputs)."""
    faces = set()
    for facet in facets:
        facet = sorted(set(facet))
        for k in range(1, len(facet) + 1):
            faces.update(combinations(facet, k))
    by_dim = {}
    for face in sorted(faces):
        by_dim.setdefault(len(face) - 1, []).append(face)
    return SimplicialComplex(by_dim, trunc=max(by_dim, default=-1), complete=True)


def full_simplex(num_vertices):
    """The full simplex on ``num_vertices`` vertices (num_vertices-1 dimensional)."""
    if num_vertices < 0:
        raise InputError("vertex count must be nonnegative")
    return from_facets([tuple(range(num_vertices))])


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
    return deleted_join([M], max_dim, cap)


def deleted_join(matroids, trunc=None, cap=DEFAULT_FACE_CAP):
    """Deleted join of the independence complexes of ``matroids`` on one
    ground set, materialized through dimension ``trunc`` (all of it if None).

    A face is a union of faces, one per labeled copy, whose parts are pairwise
    disjoint as sets of elements; ``deleted_join([M] * k)`` is the k-fold
    deleted join of M.  Each distinct matroid's complex is built once.  Levels
    fill in lexicographic order: a face grows by a larger vertex, either in
    its last copy, extending that copy's part, or in a later copy by an
    element no part uses yet.  A level is abandoned with a ResourceLimitError
    as soon as it holds more than ``cap`` faces.
    """
    mats = list(matroids)
    if not mats:
        raise InputError("need at least one matroid")
    n = mats[0].n
    if any(M.n != n for M in mats):
        raise InputError("matroids must share the ground set")
    ranks = [M.rank() for M in mats]
    top = min(sum(ranks), n) - 1  # a face has at most min(sum rank, n) vertices
    if trunc is None:
        trunc = top
    if trunc < -1:
        raise InputError(f"max_dim must be >= -1, got {trunc}")
    factors = {}
    for M, r in zip(mats, ranks):
        if id(M) not in factors:
            factors[id(M)] = independent_sets(M, min(trunc, r - 1), cap)
    if len(mats) == 1:  # matroid complexes are pure: the rank bound is exact
        by_dim = factors[id(mats[0])]
        return SimplicialComplex(by_dim, trunc, complete=trunc >= top)

    # per copy: encoded part -> (vertex, element) of each larger element
    # extending it; the empty part maps to the copy's non-loops
    ext = []
    for c, M in enumerate(mats):
        kids = {}
        for faces in factors[id(M)].values():
            for f in faces:
                key = tuple(c * n + e for e in f[:-1])
                kids.setdefault(key, []).append((c * n + f[-1], f[-1]))
        ext.append(kids)
    fresh = [[]]  # fresh[j]: the non-loop vertices of copies j.., in order
    for kids in reversed(ext):
        fresh.insert(0, kids.get((), []) + fresh[0])

    def grow(level, stop):
        """The next level, cut short once it holds more than ``stop`` faces."""
        nxt = []
        for face in level:
            if face:
                c = face[-1] // n
                cands = fresh[c + 1]
                same = ext[c].get(face[bisect_left(face, c * n):])
                if same:
                    cands = chain(same, cands)
                used = set(map(n.__rmod__, face))
            else:
                cands, used = fresh[0], ()
            for v, e in cands:
                if e not in used:
                    nxt.append(face + (v,))
                    if len(nxt) > stop:
                        return nxt
        return nxt

    by_dim = {}
    level = [()]
    for d in range(trunc + 1):
        level = grow(level, inf if cap is None else cap)
        _check_cap(len(level), d, cap)
        if not level:
            break
        by_dim[d] = level
    # below the bound, complete iff no top face extends (trunc = -1 is decided
    # by the bound alone: a vertex exists iff some rank is positive)
    complete = trunc >= top or (trunc >= 0 and not grow(level, 0))
    return SimplicialComplex(by_dim, trunc, complete)


# compatibility name: the benchmark's tracer wraps this binding
matroid_deleted_join = deleted_join


def chessboard(k, m, trunc=None, cap=DEFAULT_FACE_CAP):
    """Chessboard complex C(k, m): partial placements of non-attacking rooks.

    Built as the k-fold deleted join of U(1, m), so the cell in row r and
    column c is the vertex r*m + c.
    """
    if k < 1 or m < 1:
        raise InputError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    return deleted_join([UniformMatroid(1, m)] * k, trunc, cap)
