"""Simplicial complexes: matroid independence complexes, their deleted joins,
chessboards.

Faces are sorted tuples of encoded vertex ids, stored per dimension in
lexicographic order; the empty face is implicit (f_{-1} = 1).  A deleted join
of k matroids on a ground set of size n has the labeled vertices
copy*n + element with 0-based copies.  One lazy walk, ``enumerate_faces``,
lists a matroid's independent sets for the Tverberg search; one builder,
``deleted_join``, makes every complex from matroids: the independence complex
is its one-factor case, ``independent_sets`` built level by level, and the
chessboard C(k, m) is the k-fold deleted join of U(1, m).
A join built ``relative`` stores only the faces off a contractible union U
of vertex stars, all homology needs, and its exact f-vector; else U is empty.

Materialization is dimension-truncated: ``trunc`` is the largest dimension
enumerated, ``complete`` records whether any faces beyond it exist.  Counts at
each materialized dimension are exact.  A per-dimension face cap (default
5e6, on stored faces and others) turns combinatorial blowup into a distinct
resource-limit error that names the lowest over-full dimension.  A d-face
costs 48 + 8(d+1) bytes, its list slot included (87 bytes a face for C(6,8)
through dimension 5), so a level of 5-faces at the cap holds 0.5 GB.
"""

from bisect import bisect_left
from collections import Counter
from itertools import chain, islice
from sys import maxsize

from .errors import InputError, ResourceLimitError
from .matroids import UniformMatroid

DEFAULT_FACE_CAP = 5_000_000


def _check_cap(count, dim, cap):
    if count > cap:  # counting stops at cap + 1
        raise ResourceLimitError(
            f"face cap exceeded at dimension {dim}: {cap + 1} > {cap}",
            progress={"dimension": dim, "cap": cap},
        )


class SimplicialComplex:
    """Immutable materialized complex.

    faces_by_dim: dict dim -> lexicographically sorted list of sorted tuples;
    builders hand their levels over already sorted.  ``f`` is the f-vector.
    A complex stored off the stars of its ``apexes``, the first vertex
    first, has ``vertices``, all in order."""

    def __init__(self, faces_by_dim, trunc, complete, f=None, vertices=None, apexes=None):
        self.faces_by_dim = faces_by_dim
        self.trunc = trunc
        self.complete = complete
        self.f = f or tuple(len(faces_by_dim[d]) for d in range(len(faces_by_dim)))
        self.vertices = vertices
        self.apexes = apexes

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

    def _materialized_to(self, d):
        return self.complete or self.trunc >= d

    def __repr__(self):
        kind = "complete" if self.complete else f"trunc={self.trunc}"
        return f"SimplicialComplex(f={self.f_vector()}, {kind})"


def enumerate_faces(M, max_size):
    """Nonempty independent sets of M with at most max_size elements in
    lexicographic order ((0,) < (0,1) < (0,2) < (1,) ...), each built when it
    is asked for by a depth-first walk: ``M._extensions`` is asked once for
    the empty face and once per face it extends (hereditarity).  It holds
    one face and one answer per depth, a range for uniform matroids and up
    to n elements otherwise, and no depth exhausts the call stack.  Only the
    Tverberg search reads it; ``independent_sets`` builds stored levels."""
    face = []
    rests = [iter(M._extensions(()))] if max_size > 0 else []  # left at each depth
    while rests:
        for e in rests[-1]:
            face.append(e)
            yield tuple(face)
            if len(face) < max_size:
                rests.append(iter(M._extensions(face)))
                break
            face.pop()
        else:
            rests.pop()
            if face:
                face.pop()


def independent_sets(M, max_dim, cap):
    """Nonempty independent sets of M with at most max_dim+1 elements, max_dim
    below M's rank: dim -> lexicographically sorted faces, built level by
    level.  Level 0 is the non-loops, from one ``M._extensions(())`` call;
    level d+1 is ``M._children`` of level d, read as groups of siblings: a
    child of P + e is P + e + x for a later sibling x of e, as P + x is a
    face.  The family holds no state between levels, so memory is the
    levels themselves and, for a graphic M, one forest labelling per depth
    of the group being scanned.  A level stops at cap + 1 faces (no list is
    longer than sys.maxsize), so the first over-full level raises."""
    by_dim, stop = {}, min(cap + 1, maxsize)
    for d in range(max_dim + 1):
        kids = M._children(by_dim[d - 1]) if d else ((e,) for e in M._extensions(()))
        by_dim[d] = list(islice(kids, stop))
        _check_cap(len(by_dim[d]), d, cap)
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
    copy.  Siblings, consecutive faces with one parent, share one set of
    that parent's elements, and a child's element is tested against it and
    the face's last element.  A level is abandoned with a ResourceLimitError
    once it holds more than ``cap`` faces.

    Only the faces off U, the union of the closed stars of the vertices in F,
    are stored, and F is empty unless ``relative`` (k >= 2): then every face
    has mask 0 (below).  Otherwise F holds the first vertex v1 and, in each
    later copy of rank >= 2, the vertex of the least non-loop element F does
    not use yet.  Any of them span a face, so their stars meet
    in the star of that face, a cone, and U is contractible (nerve theorem).
    A face in U, transient, carries a mask: bit i while F[i] is not in it but
    extends it, and HOLD once it holds a vertex of F.  A child clears the bit
    of the vertex of F with its element (or holds it), and that of its copy if
    its part spans that copy's element of F: at most two, so a face with three
    bits keeps all its children in U.  Faces of mask 0 are stored, and one
    loop visits them first, with their children all stored.  The faces
    holding v1, t + v1 for the faces t of bit v1 one size down, are counted,
    never built, and so is every face of U at the top.  Rank-1 copies stay out
    of F, so chessboards keep F = {v1}.
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
    asked = {i: {(): M._extensions(())} for i, M in distinct.items()}
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
                memo[key] = mats[c]._extensions(key) if len(key) < rank[id(mats[c])] else []
            kids = ext[c][part] = [(c * n + e, e) for e in memo[key]]
        return kids

    fresh = _Suffixes(children, len(mats))  # fresh[j]: copies j..'s non-loop vertices

    if not fresh[0]:  # no vertex: the bound decides
        return SimplicialComplex({}, trunc, trunc >= top)
    apexes = [fresh[0][0][0]] if relative else []  # F, v1 first; U is empty when stored
    for c in range(fresh[0][0][0] // n + 1, len(mats) if relative else 0):
        if rank[id(mats[c])] > 1:
            taken = {v % n for v in apexes}
            e = next((e for e in asked[id(mats[c])][()] if e not in taken), None)
            apexes += [] if e is None else [c * n + e]
    cbit, at, head = [0] * len(mats), {}, {}  # a copy's bit (bit 0 is HOLD), F by element, by copy
    for i, v in enumerate(apexes):
        cbit[v // n], at[v % n], head[v // n] = 2 << i, v, v
    spans = [{} for _ in mats]

    def spanning(c, part):
        """The children v of copy c's encoded part that span the element of
        w, copy c's vertex of F, with the part: v is no child of part + w, or
        w none of part + v.  A part of trunc elements below the rank, whose
        sets the build never asks for, takes independence calls instead."""
        out = spans[c].get(part)
        if out is None:
            w, M = head[c], mats[c]
            if len(part) + 2 > rank[id(M)]:  # past the rank: every child spans
                out = {v for v, _ in children(c, part)}
            elif len(part) < trunc:
                keep = children(c, tuple(sorted(part + (w,))))
                out = {v for v, e in children(c, part) if (v, e) not in keep and (
                    v > w or (w, w - c * n) not in children(c, part + (v,)))}
            else:
                base = frozenset([v - c * n for v in part + (w,)])
                out = {v for v, e in children(c, part) if not M._indep(base | {e})}
            out.discard(w)
            spans[c][part] = out
        return out

    by_dim, f, hots, parent = {}, [], {}, None
    star = {0: [], (2 << len(apexes)) - 2: [()]}  # () has all bits: mask 0 when F is empty
    fspan = set().union(*(spanning(v // n, ()) for v in apexes[1:]))  # by a lone element
    for d in range(trunc + 1):
        cone = sum(len(level) for m, level in star.items() if m & 2)  # the faces t + v1
        counted = 0 < d == trunc  # the top's faces in U are counted
        noff, width, reach = [], 0, False
        nstar = {0: noff}  # the stored faces, visited first
        for m, level in star.items():
            same, hot, room = [] if m else noff, hots.get(m), cap - cone - width - len(noff)
            add = same.append
            if hot is None:  # a child that clears bits whatever its part -> its mask
                hot = hots[m] = {}
                for v in fspan.union(j * n + e for e, u in at.items() if m & cbit[u // n]
                                     for j in range(len(mats))):
                    u = at.get(v % n)  # v's element is used, or v is u
                    mm = m if u is None else m & ~cbit[u // n] | (v == u)
                    hot[v] = mm & ~cbit[v // n] if v in fspan else mm
            for face in level:
                if len(same) > room:
                    break
                if face:
                    c = face[-1] // n
                    part = face[bisect_left(face, c * n):]
                    own = ext[c].get(part)  # children() inlined: a call a face costs more
                    if own is None:
                        own = children(c, part)
                    kids = chain(own, fresh[c + 1]) if own else fresh[c + 1]
                    if face[:-1] != parent:  # siblings share their parent's elements
                        parent = face[:-1]
                        used = set(map(n.__rmod__, parent))
                    le = face[-1] % n
                else:  # all the non-loops, or all but v1 when relative
                    c, part, used, le = fresh[0][0][0] // n, (), (), None
                    kids = islice(fresh[0], 1, None) if m else fresh[0]
                if not m:  # no vertex of F extends a stored face: its children are stored
                    for v, e in kids:
                        if e not in used and e != le:
                            add(face + (v,))
                    continue
                span, spot = (), hot  # the children that may clear a bit
                if m & cbit[c]:
                    span = spans[c].get(part)
                    if span is None:
                        span = spanning(c, part)
                    if span:
                        spot = hot.keys() | span
                if counted:  # count a child in U, and whether it has a bit it does not hold
                    last, lost = width, 0
                    for v, e in kids:
                        if e not in used and e != le:
                            if v in spot:
                                mm = hot.get(v, m) & ~cbit[c] if v in span else hot.get(v, m)
                                if not mm:
                                    noff.append(face + (v,))
                                    continue
                                lost += mm < 2
                            width += 1
                    reach = reach or m > 1 and width - last > lost
                    if cone + width + len(noff) > cap:
                        break
                    continue
                for v, e in kids:
                    if e not in used and e != le:
                        if v in spot:
                            mm = hot.get(v, m) & ~cbit[c] if v in span else hot.get(v, m)
                            if mm != m:
                                if mm:
                                    nstar.setdefault(mm, []).append(face + (v,))
                                    width += 1
                                else:
                                    noff.append(face + (v,))
                                room -= 1
                                continue
                        add(face + (v,))
            if m:  # the stored faces' list is noff itself
                width += len(same)
                nstar.setdefault(m, []).extend(same)
            if cone + width + len(noff) > cap:
                break
        if not counted:
            reach = any(m > 1 and level for m, level in nstar.items())
        count = cone + width + len(noff)
        _check_cap(count, d, cap)
        if not count:
            break
        if apexes:  # children of faces in U came after the stored faces'
            noff.sort()
        star, by_dim[d] = nstar, noff
        f.append(count)

    def extends(face):
        """Whether a stored face has a child; its last part is asked last."""
        c, used = face[-1] // n, set(map(n.__rmod__, face))
        return any(e not in used for _, e in fresh[c + 1]) or any(
            e not in used for _, e in children(c, face[bisect_left(face, c * n):]))

    # a face of dimension trunc+1 less a vertex of F in it, or else its last
    # vertex, is a top face with a bit of F it does not hold, or a stored one
    complete = trunc >= top or not (reach or any(map(extends, star[0])))
    return SimplicialComplex(by_dim, trunc, complete, tuple(f),
                             *(([v for v, _ in fresh[0]], apexes) if relative else ()))


# compatibility name: the benchmark's tracer wraps this binding
matroid_deleted_join = deleted_join


def chessboard(k, m, trunc=None, cap=DEFAULT_FACE_CAP, relative=False):
    """Chessboard complex C(k, m): partial placements of non-attacking rooks.

    Built as the k-fold deleted join of U(1, m), so the cell in row r and
    column c is the vertex r*m + c.  Each level is counted before the k
    copies are listed, f_d = C(k, d+1) m!/(m-d-1)!, so the cap names the
    dimension the build would; a negative ``trunc`` lists one copy.
    """
    if k < 1 or m < 1:
        raise InputError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    if trunc is not None and trunc < 0:  # the empty complex or an input error
        return deleted_join([UniformMatroid(1, m)], trunc, cap)
    f = 1
    for d in range(min(k, m) if trunc is None else min(k, m, trunc + 1)):
        f = f * (k - d) * (m - d) // (d + 1)
        _check_cap(f, d, cap)
    return deleted_join([UniformMatroid(1, m)] * k, trunc, cap, relative)
