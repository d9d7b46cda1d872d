"""Simplicial complexes: matroid independence complexes, their deleted joins,
chessboards.

Faces are sorted tuples of encoded vertex ids, stored per dimension in
lexicographic order; the empty face is implicit (f_{-1} = 1).  A deleted join
of k matroids on a ground set of size n has the labeled vertices
copy*n + element with 0-based copies.  One builder, ``deleted_join``, makes
every complex from matroids: the independence complex is its one-factor case,
stored whole, and the chessboard C(k, m) is the k-fold deleted join of U(1, m).
A join built ``relative`` to its first vertex stores only the faces off its
star, all homology needs, and its exact f-vector.

Materialization is dimension-truncated: ``trunc`` is the largest dimension
enumerated, ``complete`` records whether any faces beyond it exist.  Counts at
each materialized dimension are exact.  A per-dimension face cap (default
5e6, on stored faces and others) turns combinatorial blowup into a distinct
resource-limit error; levels fill in order, so it names the lowest over-full
dimension.  A d-face costs 48 + 8(d+1) bytes, its list slot included (87
bytes a face for C(6,8) through dimension 5), so a level of 5-faces at the
cap holds 0.5 GB.
"""

from bisect import bisect_left
from collections import Counter
from itertools import chain, combinations
from math import inf

from .errors import InputError, PreconditionError, ResourceLimitError
from .matroids import UniformMatroid

DEFAULT_FACE_CAP = 5_000_000


def _check_cap(count, dim, cap):
    if cap is not None and count > cap:  # counting stops at cap + 1
        raise ResourceLimitError(
            f"face cap exceeded at dimension {dim}: {cap + 1} > {cap}",
            progress={"dimension": dim, "cap": cap},
        )


class SimplicialComplex:
    """Immutable materialized complex.

    faces_by_dim: dict dim -> lexicographically sorted list of sorted tuples;
    builders hand their levels over already sorted.  ``f`` is the f-vector.
    A complex relative to its first vertex has ``vertices``, all in order."""

    def __init__(self, faces_by_dim, trunc, complete, f=None, vertices=None):
        self.faces_by_dim = faces_by_dim
        self.trunc = trunc
        self.complete = complete
        self.f = f or tuple(len(faces_by_dim[d]) for d in range(len(faces_by_dim)))
        self.vertices = vertices

    # -- queries -----------------------------------------------------------

    @property
    def dimension(self):
        """Largest materialized dimension carrying a face (-1 if none)."""
        return len(self.f) - 1

    def faces(self, dim):
        return self.faces_by_dim.get(dim, [])

    def all_faces(self):
        for d in sorted(self.faces_by_dim):
            yield from self.faces_by_dim[d]

    def f_vector(self):
        """(f_0, .., f_D) over materialized dimensions; f_{-1}=1 implicit."""
        return self.f

    def num_faces(self):
        return sum(self.f)

    def euler_characteristic(self):
        """Non-reduced Euler characteristic; requires a complete complex."""
        if not self.complete:
            raise PreconditionError("Euler characteristic needs a complete complex")
        return sum((-1) ** d * count for d, count in enumerate(self.f))

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
    faces of size s by a larger element, one ``M._extensions`` call a face,
    so enumeration is exhaustive by hereditarity; loops never appear.  A
    level is abandoned with a ResourceLimitError as soon as it holds more
    than ``cap`` faces.
    """
    by_dim = {}
    level = [()]
    for d in range(max_dim + 1):
        nxt = []
        for face in level:
            for e in M._extensions(face, face[-1] + 1 if face else 0):
                nxt.append(face + (e,))
                if cap is not None and len(nxt) > cap:
                    _check_cap(len(nxt), d, cap)
        if not nxt:
            break
        by_dim[d] = level = nxt
    return by_dim


def off_star(levels, v1):
    """Cut the star of the least vertex v1 out of ``levels``, faces by size
    0, 1, ..: each level loses its prefix of faces holding v1 and the tails
    of the next level's prefix.  The last level is only read."""
    cut = (v1 + 1,)
    out = []
    for level, above in zip(levels, levels[1:]):
        tails = {t[1:] for t in above[:bisect_left(above, cut)]}
        rest = level[bisect_left(level, cut):]
        out.append([s for s in rest if s not in tails] if tails else rest)
    return out


def as_complex(M, max_dim, cap=DEFAULT_FACE_CAP):
    """Independence complex of a matroid, stored whole through ``max_dim``.

    Vertices are the non-loops; ``cap`` bounds the faces of each dimension.
    """
    return deleted_join([M], max_dim, cap)


class _Suffixes(dict):
    """suffixes[j]: the (vertex, element) children of the empty part in copies
    j, j+1, .. in order, joined the first time j is asked for.  All k of
    them up front would hold about k*k*m/2 entries for k copies of m
    non-loops, before the first face."""

    def __init__(self, children, k):
        super().__init__()
        self.children, self.k = children, k

    def __missing__(self, j):
        joined = self[j] = [kid for c in range(j, self.k) for kid in self.children(c, ())]
        return joined


def deleted_join(matroids, trunc=None, cap=DEFAULT_FACE_CAP, relative=False):
    """Deleted join of the independence complexes of ``matroids`` on one
    ground set, materialized through dimension ``trunc`` (all of it if None).

    A face is a union of faces, one per labeled copy, whose parts are pairwise
    disjoint as sets of elements; ``deleted_join([M] * k)`` is the k-fold
    deleted join of M.  One matroid's complex is ``independent_sets``,
    stored whole.  For k >= 2 no factor complex is built: levels fill in
    lexicographic order, a face growing by a larger vertex, either one of
    its last part's ``children`` or an element no part uses in a later
    copy.  A level is abandoned with a ResourceLimitError once it holds more
    than ``cap`` faces.

    ``relative`` (k >= 2) stores the faces s off the star of the first vertex
    v1 = (c1, e1), v1 not in s and s + v1 no face.  The faces holding v1 are
    t + v1 for the star faces t one size down, a transient level: a child t
    of a star face leaves it iff it adds e1, or t[-1] lies in copy c1 and is
    no child of (v1,) + t[:-1] there.  The top's star is counted, its leavers
    built, and every child in copy c1 leaves: (v1,) + t has trunc + 2
    elements, past the build, exact unless copy c1 is cut below its rank.
    """
    mats = list(matroids)
    if not mats:
        raise InputError("need at least one matroid")
    n = mats[0].n
    copies = Counter(map(id, mats))  # per matroid, not per copy: k may be huge
    distinct = {id(M): M for M in mats}
    if any(M.n != n for M in distinct.values()):
        raise InputError("matroids must share the ground set")
    rank = {i: M.rank() for i, M in distinct.items()}
    # a face has at most min(sum rank, n) vertices
    top = min(sum(rank[i] * c for i, c in copies.items()), n) - 1
    if trunc is None:
        trunc = top
    if trunc < -1:
        raise InputError(f"max_dim must be >= -1, got {trunc}")
    # matroid complexes are pure: the rank bound is exact; trunc = -1 builds nothing
    if len(mats) == 1 or trunc < 0:
        levels = independent_sets(mats[0], min(trunc, rank[id(mats[0])] - 1), cap)
        return SimplicialComplex(levels, trunc, complete=trunc >= top)

    # per matroid: element part -> its extensions; the empty part's, the
    # non-loops, count f_0, which meets the cap before any per-copy state
    asked = {i: {(): M._extensions((), 0) if rank[i] else []} for i, M in distinct.items()}
    _check_cap(sum(len(asked[i][()]) * c for i, c in copies.items()), 0, cap)
    ext = [{} for _ in mats]  # per copy: encoded part -> its children, once asked

    def children(c, part):
        """The (vertex, element) pairs of the larger elements extending copy
        c's encoded part (the non-loops for the empty part, none at the rank),
        from ``M._extensions`` when first asked, once per element part over
        M's copies."""
        kids = ext[c].get(part)
        if kids is None:
            memo, key = asked[id(mats[c])], tuple([v - c * n for v in part])
            if key not in memo:
                memo[key] = (mats[c]._extensions(key, key[-1] + 1 if key else 0)
                             if len(key) < rank[id(mats[c])] else [])
            kids = ext[c][part] = [(c * n + e, e) for e in memo[key]]
        return kids

    fresh = _Suffixes(children, len(mats))  # fresh[j]: copies j..'s non-loop vertices

    def grow(level, stop, nxt):
        """Append the children of ``level`` to ``nxt`` till it passes ``stop``."""
        append = nxt.append
        for face in level:
            if face:
                c = face[-1] // n
                cands = fresh[c + 1]
                part = face[bisect_left(face, c * n):]
                same = ext[c].get(part)  # children() inlined: a call a face costs more
                if same is None:
                    same = children(c, part)
                if same:
                    cands = chain(same, cands)
                used = set(map(n.__rmod__, face))
            else:
                cands, used = fresh[0], ()
            for v, e in cands:
                if e not in used:
                    append(face + (v,))
            if len(nxt) > stop:
                break
        return nxt

    if not fresh[0]:  # no vertex: the bound decides
        return SimplicialComplex({}, trunc, trunc >= top)
    v1, e1 = fresh[0][0]
    c1 = v1 // n
    stop = inf if cap is None else cap
    by_dim, f, star, off = {}, [], [()], []
    for d in range(trunc + 1):
        cone = len(star)  # the d-faces t + v1 of the star faces t below
        nstar, noff = [], []
        if relative and 0 < d == trunc:  # count the top's star, build its leavers
            loose = [{e for _, e in children(j, ())} for j in range(len(mats))]
            width = 0
            for face in star:
                c = face[-1] // n
                used = set(map(n.__rmod__, face))
                for v, e in children(c, face[bisect_left(face, c * n):]):  # its own copy
                    if e not in used:
                        if e == e1 or c == c1:
                            noff.append(face + (v,))
                        else:
                            width += 1
                for j in range(c + 1, len(mats)):  # every unused non-loop; e1 leaves
                    width += len(loose[j]) - len(used & loose[j])
                    if e1 in loose[j]:
                        noff.append(face + (j * n + e1,))
                        width -= 1
                if cone + width + len(noff) > stop:
                    break
        else:
            for t in grow(star, stop - cone, []):
                v = t[-1]
                if v != v1:  # below the top, a child in copy c1 is looked up
                    (nstar if v % n != e1 and (v // n != c1 or d < trunc and (v, v % n) in
                                               children(c1, (v1,) + t[:-1])) else noff).append(t)
            width = len(nstar)
        grow(off, stop - cone - width, noff)
        count = cone + width + len(noff)
        _check_cap(count, d, cap)
        if not count:
            break
        noff.sort()  # two sorted runs: the leavers and the children of off
        by_dim[d] = noff if relative else [(v1,) + t for t in star] + sorted(nstar + noff)
        star, off = nstar, noff
        f.append(count)
    # a face of dimension trunc+1 is t + v1 for a star face t, or extends an
    # off-star one; copy c1's complex cut below its rank has one anyway
    complete = trunc >= top or (trunc >= rank[id(mats[c1])] - 1 and not width
                                and not grow(off, 0, []))
    return SimplicialComplex(by_dim, trunc, complete, tuple(f),
                             [v for v, _ in fresh[0]] if relative else None)


# compatibility name: the benchmark's tracer wraps this binding
matroid_deleted_join = deleted_join


def chessboard(k, m, trunc=None, cap=DEFAULT_FACE_CAP, relative=False):
    """Chessboard complex C(k, m): partial placements of non-attacking rooks.

    Built as the k-fold deleted join of U(1, m), so the cell in row r and
    column c is the vertex r*m + c.
    """
    if k < 1 or m < 1:
        raise InputError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    return deleted_join([UniformMatroid(1, m)] * k, trunc, cap, relative)
