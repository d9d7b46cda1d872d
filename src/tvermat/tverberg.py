"""Tverberg witness search for affine maps given by exact rational points.

A witness is t pairwise disjoint nonempty independent sets whose convex hull
images share a point, certified by exact convex coefficients.  Only affine
maps are representable here; since any affine map is continuous, every
instance is a valid (weaker) test of the continuous-map threshold
t* = ceil(sqrt(b)/4), which is computed by pure integer comparisons.
"""

import random
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm
from operator import le

from .errors import InputError, PreconditionError, ResourceLimitError
from .complexes import DEFAULT_FACE_CAP, enumerate_faces
from .lp import hulls_intersect
from .matroids import _is_prime
from .packing import _check_family, max_disjoint_bases


@dataclass(frozen=True)
class PointConfig:
    """Exact rational coordinates for ground elements, one d-vector each."""

    dim: int
    coords: dict  # element id -> tuple of Fractions

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"dimension must be >= 1, got {self.dim}")
        for e, pt in self.coords.items():
            if len(pt) != self.dim:
                raise InputError(f"point for element {e} has wrong dimension")

    def point(self, e):
        return self.coords[e]

    def covers(self, elements):
        return all(e in self.coords for e in elements)


def random_point_config(n, d, seed, low=-100, high=100, max_den=16):
    """Seeded random rational configuration for elements 0..n-1; deterministic."""
    rng = random.Random(seed)
    coords = {
        e: tuple(
            Fraction(rng.randint(low, high), rng.randint(1, max_den))
            for _ in range(d)
        )
        for e in range(n)
    }
    return PointConfig(d, coords)


@dataclass
class TverbergWitness:
    """Disjoint independent faces with a certified common hull point."""

    faces: list  # sorted tuples of element ids
    point: tuple  # d Fractions
    coefficients: list  # per face, list of Fractions parallel to its vertices

    def validate(self, M, cfg):
        """Exact re-check of every invariant; raises on any violation."""
        if not all(self.faces):
            raise RuntimeError("witness face is empty")
        _check_family(M, self.faces)
        if len(self.coefficients) != len(self.faces):
            raise RuntimeError("coefficient arity mismatch")
        for face, lam in zip(self.faces, self.coefficients):
            if len(face) != len(lam):
                raise RuntimeError("coefficient arity mismatch")
            if any(l < 0 for l in lam) or sum(lam) != 1:
                raise RuntimeError("coefficients are not convex")
            for ell in range(cfg.dim):
                s = sum(
                    (l * cfg.point(e)[ell] for l, e in zip(lam, face)), Fraction(0)
                )
                if s != self.point[ell]:
                    raise RuntimeError("convex combination misses the common point")
        return True


@dataclass
class SearchResult:
    witness: TverbergWitness | None
    tuples_examined: int  # t-tuples whose proper prefixes all have meeting boxes
    faces_enumerated: int  # faces built, in lexicographic order
    subtrees_pruned: int  # proper prefixes whose boxes miss


def _bbox(points):
    coords = list(zip(*points))
    return tuple(map(min, coords)), tuple(map(max, coords))


class _LazyBoxes(dict):
    """Face index -> bounding box of its points, built when first asked for."""

    def __init__(self, faces, points):
        self.faces = faces
        self.points = points

    def __missing__(self, i):
        box = self[i] = _bbox([self.points[e] for e in self.faces[i]])
        return box


class _LazyFaces(list):
    """Faces from an iterator, built as the search first reaches them;
    more than ``cap`` of them is a ResourceLimitError."""

    def __init__(self, faces, cap):
        self.source = faces
        self.cap = cap

    def reach(self, i):
        """Whether face i exists, building the faces up to it."""
        if len(self) <= i:
            self.extend(islice(self.source, min(i, self.cap) + 1 - len(self)))
            if len(self) > self.cap:
                raise ResourceLimitError(f"face cap {self.cap} exceeded",
                                         progress={"faces": len(self), "cap": self.cap})
        return len(self) > i


def _tuples(faces, boxes, t):
    """Canonical enumeration of strictly increasing disjoint face tuples.

    Yields (indices, candidate).  A t-tuple's ``candidate`` is False when its
    faces' bounding boxes miss (the LP is skipped, the tuple still counts as
    examined).  A shorter prefix whose boxes miss is yielded with None and
    not extended: boxes only shrink along a path.  The path is a list, so
    no t exhausts the call stack; ``used`` is the union of its faces, kept
    in place, and ``box`` the intersection of their boxes, None at the root.
    """
    chosen, saved = [], []  # the path, and the box before each of its faces
    used, box, i = set(), None, 0
    while True:
        if not faces.reach(i + t - len(chosen) - 1):
            if not chosen:
                return
            i = chosen.pop()
            used.difference_update(faces[i])
            box = saved.pop()
        elif used.isdisjoint(faces[i]):
            nbox = boxes[i]
            if box is not None:
                lo = tuple(map(max, box[0], nbox[0]))
                hi = tuple(map(min, box[1], nbox[1]))
                nbox = (lo, hi) if all(map(le, lo, hi)) else None
            if len(chosen) + 1 == t:
                yield [*chosen, i], nbox is not None
            elif nbox is None:
                yield [*chosen, i], None
            else:
                saved.append(box)
                chosen.append(i)
                used.update(faces[i])
                box = nbox
        i += 1


def find_tverberg(M, cfg, t, max_tuples=None, deadline=None, cap=DEFAULT_FACE_CAP):
    """First Tverberg witness at size t in canonical tuple order, or None
    after certified exhaustive enumeration.

    Faces are nonempty independent sets of at most min(rank, d+1) elements
    (by Caratheodory, larger faces never enlarge the witness set), built in
    lexicographic order as the search first reaches them, at most ``cap``.
    A tuple goes to the exact LP only when the bounding boxes of its faces
    meet, and a prefix whose boxes miss is not extended.  The boxes are
    taken on the integer lattice of the least common denominator of the
    coordinates, which keeps their order, and are built as faces are
    reached.  ``max_tuples`` and the ``time.monotonic()`` instant
    ``deadline`` are checked per examined tuple and per pruned subtree.
    """
    if t < 1:
        raise InputError(f"t must be positive, got {t}")
    non_loops = M._extensions(())
    if not cfg.covers(non_loops):
        raise InputError("configuration misses coordinates for some non-loop element")
    rho = M.rank()
    if rho != cfg.dim + 1:
        warnings.warn(
            f"matroid rank {rho} differs from d+1 = {cfg.dim + 1}; "
            "the threshold theorem assumes rank d+1", stacklevel=2,
        )
    max_size = min(rho, cfg.dim + 1)
    faces = _LazyFaces(enumerate_faces(M, max_size), cap)
    pts = {e: tuple(map(Fraction, cfg.point(e))) for e in non_loops}
    scale = lcm(*(c.denominator for p in pts.values() for c in p))
    lattice = {e: tuple(c.numerator * (scale // c.denominator) for c in p)
               for e, p in pts.items()}
    boxes = _LazyBoxes(faces, lattice)

    examined = pruned = 0
    for idxs, candidate in _tuples(faces, boxes, t):
        if candidate is None:
            pruned += 1
        else:
            examined += 1
        over = max_tuples is not None and examined > max_tuples
        if over or deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError(
                f"tuple cap {max_tuples} exceeded" if over else "time limit exceeded",
                progress={"tuples_examined": examined, "subtrees_pruned": pruned,
                          "faces": len(faces)})
        if not candidate:
            continue
        res = hulls_intersect([[pts[e] for e in faces[i]] for i in idxs])
        if res is not None:
            point, lambdas = res
            w = TverbergWitness(
                faces=[faces[i] for i in idxs], point=point, coefficients=lambdas
            )
            w.validate(M, cfg)
            return SearchResult(w, examined, len(faces), pruned)
    return SearchResult(None, examined, len(faces), pruned)


def choose_prime(b):
    """Largest prime p with sqrt(b)/4 <= p <= sqrt(b)/2, or None.

    Endpoint comparisons are exact: 16*p*p >= b and 4*p*p <= b.  The interval
    misses a prime only for b <= 15 (Bertrand's postulate covers b >= 16).
    b >= 2**128 is an input error: p must stay below 2**64 for ``_is_prime``.
    """
    if b < 1:
        raise InputError(f"b must be positive, got {b}")
    if b >= 1 << 128:
        raise InputError(f"b must be below 2**128, got {b}")
    hi = isqrt(b // 4)
    p = hi
    while p >= 2:
        if 16 * p * p >= b and _is_prime(p):
            return p
        p -= 1
    return None


def threshold_t(b):
    """ceil(sqrt(b)/4) by integer comparisons: smallest t >= 1 with 16*t*t >= b."""
    if b < 1:
        raise InputError(f"b must be positive, got {b}")
    t = max(isqrt(b // 16), 1)
    while 16 * t * t < b:
        t += 1
    return t


def dold_inequality_holds(b, d, p):
    """Exact check of b*(d+1)/(ceil(b/p)+1) - 2 >= (d+1)*(p-1) - 1."""
    if b < 1 or d < 1:
        raise InputError(f"need b >= 1 and d >= 1, got b={b}, d={d}")
    if not _is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    lhs = Fraction(b * (d + 1), -(-b // p) + 1) - 2
    return lhs >= (d + 1) * (p - 1) - 1


@dataclass
class TheoremReport:
    """End-to-end record for the sqrt(b)/4 threshold on one affine instance."""

    b: int
    rank: int
    dim: int
    t_star: int
    prime: int | None
    inequality_holds: bool | None
    witness: TverbergWitness | None
    tuples_examined: int
    subtrees_pruned: int
    falsification_candidate: bool
    note: str = ""

    def to_payload(self):
        """Every field; the note only if there is one."""
        return {key: value for key, value in vars(self).items() if key != "note" or value}


def verify_theorem(M, cfg, max_tuples=None, deadline=None, cap=DEFAULT_FACE_CAP):
    """Verify the threshold t* = ceil(sqrt(b)/4) on one affine instance.

    Computes b(M), the prime choice and its closing inequality as a
    consistency sub-report, then searches for a witness at t*.  Exhaustion
    without a witness is flagged as a falsification candidate (for rank d+1
    and b >= 16 it would contradict the theorem; smaller b makes the bound
    trivial and absence merely degenerate).
    """
    rho = M.rank()
    if rho != cfg.dim + 1:
        raise PreconditionError(
            f"matroid rank {rho} must equal d+1 = {cfg.dim + 1}"
        )
    b, _, _ = max_disjoint_bases(M, deadline)
    t_star = threshold_t(b)
    prime = choose_prime(b)
    ineq = dold_inequality_holds(b, cfg.dim, prime) if prime is not None else None
    search = find_tverberg(M, cfg, t_star, max_tuples, deadline, cap)
    missing = search.witness is None
    note = "" if not missing else (
        "no witness at t*: falsifies the threshold" if b >= 16
        else "no witness at t*: degenerate instance (b < 16, trivial bound)")
    return TheoremReport(
        b=b, rank=rho, dim=cfg.dim, t_star=t_star, prime=prime,
        inequality_holds=ineq, witness=search.witness,
        tuples_examined=search.tuples_examined,
        subtrees_pruned=search.subtrees_pruned, falsification_candidate=missing, note=note,
    )
