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
from math import isqrt, lcm
from operator import le

from .errors import InputError, PreconditionError, ResourceLimitError
from .complexes import independent_sets
from .lp import hulls_intersect
from .matroids import _is_prime
from .packing import max_disjoint_bases


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
        used = set()
        for face in self.faces:
            fs = frozenset(face)
            if not face:
                raise RuntimeError("witness face is empty")
            if used & fs:
                raise RuntimeError("witness faces are not disjoint")
            used |= fs
            if not M.is_independent(fs):
                raise RuntimeError("witness face is dependent")
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
    tuples_examined: int
    faces_enumerated: int


def enumerate_faces(M, max_size):
    """Nonempty independent sets of size <= max_size in lexicographic order
    ((0,) < (0,1) < (0,2) < (1,) ...), which is plain tuple order across the
    levels of ``independent_sets``."""
    levels = independent_sets(M, max_size - 1)
    yield from sorted(face for faces in levels.values() for face in faces)


def _bbox(points):
    lo = tuple(min(p[ell] for p in points) for ell in range(len(points[0])))
    hi = tuple(max(p[ell] for p in points) for ell in range(len(points[0])))
    return lo, hi


class _LazyBoxes(dict):
    """Face index -> bounding box of its points, built when first asked for."""

    def __init__(self, faces, points):
        self.faces = faces
        self.points = points

    def __missing__(self, i):
        box = self[i] = _bbox([self.points[e] for e in self.faces[i]])
        return box


def _tuples(faces, boxes, t, start=0, used=frozenset(), box=None, chosen=()):
    """Canonical enumeration of strictly increasing disjoint face tuples.

    Yields (indices, candidate) where ``candidate`` is False when the
    bounding boxes of the faces have an empty intersection (the LP is then
    skipped but the tuple still counts as examined).  ``box`` is the running
    intersection of the chosen faces' boxes: None at the root, False once it
    is empty, which holds for every completion since boxes only shrink.
    """
    depth = len(chosen)
    for i in range(start, len(faces) - (t - depth) + 1):
        if not used.isdisjoint(faces[i]):
            continue
        nbox = box
        if box is None:
            nbox = boxes[i]
        elif box:
            lo = tuple(map(max, box[0], boxes[i][0]))
            hi = tuple(map(min, box[1], boxes[i][1]))
            nbox = (lo, hi) if all(map(le, lo, hi)) else False
        if depth + 1 == t:
            yield [*chosen, i], nbox is not False
        else:
            yield from _tuples(faces, boxes, t, i + 1, used.union(faces[i]), nbox,
                               (*chosen, i))


def find_tverberg(M, cfg, t, max_tuples=None, deadline=None):
    """First Tverberg witness at size t in canonical tuple order, or None
    after certified exhaustive enumeration.

    Faces are nonempty independent sets of at most min(rank, d+1) elements
    (by Caratheodory, larger faces never enlarge the witness set).  A tuple
    goes to the exact LP only when the bounding boxes of its faces meet.
    The boxes are taken on the integer lattice of the least common
    denominator of the coordinates, which keeps their order, and a face's
    box is built when a tuple first reaches the face.  ``deadline`` is a
    ``time.monotonic()`` instant checked once per examined tuple.
    """
    if t < 1:
        raise InputError(f"t must be positive, got {t}")
    non_loops = M.non_loops()
    if not cfg.covers(non_loops):
        raise InputError("configuration misses coordinates for some non-loop element")
    rho = M.rank()
    if rho != cfg.dim + 1:
        warnings.warn(
            f"matroid rank {rho} differs from d+1 = {cfg.dim + 1}; "
            "the threshold theorem assumes rank d+1", stacklevel=2,
        )
    max_size = min(rho, cfg.dim + 1)
    faces = list(enumerate_faces(M, max_size))
    pts = {e: tuple(map(Fraction, cfg.point(e))) for e in non_loops}
    scale = lcm(*(c.denominator for p in pts.values() for c in p))
    lattice = {e: tuple(c.numerator * (scale // c.denominator) for c in p)
               for e, p in pts.items()}
    boxes = _LazyBoxes(faces, lattice)

    examined = 0

    def check_limits():
        if max_tuples is not None and examined > max_tuples:
            raise ResourceLimitError(
                f"tuple cap {max_tuples} exceeded",
                progress={"tuples_examined": examined, "faces": len(faces)},
            )
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError(
                "time limit exceeded",
                progress={"tuples_examined": examined, "faces": len(faces)},
            )

    for idxs, feasible in _tuples(faces, boxes, t):
        examined += 1
        check_limits()
        if not feasible:
            continue
        res = hulls_intersect([[pts[e] for e in faces[i]] for i in idxs])
        if res is not None:
            point, lambdas = res
            w = TverbergWitness(
                faces=[faces[i] for i in idxs], point=point, coefficients=lambdas
            )
            w.validate(M, cfg)
            return SearchResult(w, examined, len(faces))
    return SearchResult(None, examined, len(faces))


def choose_prime(b):
    """Largest prime p with sqrt(b)/4 <= p <= sqrt(b)/2, or None.

    Endpoint comparisons are exact: 16*p*p >= b and 4*p*p <= b.  The interval
    misses a prime only for b <= 15 (Bertrand's postulate covers b >= 16).
    """
    if b < 1:
        raise InputError(f"b must be positive, got {b}")
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
    falsification_candidate: bool
    note: str = ""

    def to_payload(self):
        out = {
            "b": self.b,
            "rank": self.rank,
            "dim": self.dim,
            "t_star": self.t_star,
            "prime": self.prime,
            "inequality_holds": self.inequality_holds,
            "tuples_examined": self.tuples_examined,
            "falsification_candidate": self.falsification_candidate,
        }
        if self.note:
            out["note"] = self.note
        return out


def verify_theorem(M, cfg, max_tuples=None, deadline=None):
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
    search = find_tverberg(M, cfg, t_star, max_tuples=max_tuples, deadline=deadline)
    missing = search.witness is None
    note = ""
    if missing:
        note = (
            "no witness at t*: falsifies the threshold"
            if b >= 16
            else "no witness at t*: degenerate instance (b < 16, trivial bound)"
        )
    return TheoremReport(
        b=b, rank=rho, dim=cfg.dim, t_star=t_star, prime=prime,
        inequality_holds=ineq, witness=search.witness,
        tuples_examined=search.tuples_examined,
        falsification_candidate=missing, note=note,
    )
