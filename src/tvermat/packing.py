"""Disjoint base packings and independent-set covers via matroid union.

The workhorse is a breadth-first augmenting-path search in the exchange
digraph: maintain k pairwise disjoint independent sets, and per augmentation
grow their total size by one.  Sources are uncovered elements; following an
arc x -> y (y in part i, y in the fundamental circuit of x w.r.t. part i)
means "swap x into part i, y out"; a sink is an element insertable into some
part outright.  Both come from one query per (x, part),
``Matroid.fundamental_circuit``, which graphic, uniform and partition
matroids answer in closed form and linear and explicit ones by independence
calls.  Applying a
BFS-shortest path keeps all swaps simultaneously valid.  When no augmenting
path exists, the set of reachable elements is an exact Edmonds-style
certificate of maximality.  A run keeps its state across augmentations in
one ``_Union``; a basis accepts no element, so each BFS level asks the parts
not yet full for a sink before the full parts are asked for circuits.  b(M)
comes from one run that appends an empty part each time the parts have grown
into bases; the first growth that finds no path is undone from a log of its
moves.  Each returned family is checked once, by ``_check_family``, before
it leaves this module.
"""

import time
from dataclasses import dataclass, field

from .errors import InputError, ResourceLimitError
from .matroids import Matroid, _as_idset


def _check_family(M, sets):
    """Raise RuntimeError unless ``sets`` are pairwise disjoint independent
    sets of M: one oracle call per set."""
    seen = set()
    for s in sets:
        s = frozenset(s)
        if not seen.isdisjoint(s):
            raise RuntimeError("family members are not pairwise disjoint")
        seen |= s
        if not M.is_independent(s):
            raise RuntimeError("family member is dependent")


@dataclass
class BasePacking:
    """Pairwise disjoint bases of one matroid."""

    bases: list  # list of frozensets
    matroid: Matroid = field(repr=False, default=None)

    def __len__(self):
        return len(self.bases)

    def check(self):
        """Re-verify disjointness, independence and size; raises on violation."""
        _check_family(self.matroid, self.bases)
        full = self.matroid.rank()
        if any(len(b) != full for b in self.bases):
            raise RuntimeError("packed set is not a basis")
        return True


@dataclass
class PackingCertificate:
    """Witness set A with k*rank(A) + |E - A| < k*rank(E): no k disjoint bases."""

    witness_set: frozenset
    k: int

    def check(self, M):
        A = self.witness_set
        lhs = self.k * M.rank(A) + (M.n - len(A))
        rhs = self.k * M.rank()
        if lhs >= rhs:
            raise RuntimeError(
                f"invalid certificate: {self.k}*rank(A)+|E-A| = {lhs} >= {rhs}"
            )
        return True


@dataclass
class CoverCertificate:
    """Witness A' <= A with m*rank(A') < |A'|: A is no union of m independent sets."""

    witness_set: frozenset
    m: int

    def check(self, M):
        if self.m * M.rank(self.witness_set) >= len(self.witness_set):
            raise RuntimeError("invalid cover certificate")
        return True


class _Union:
    """One matroid-union run: its state lives across the augmentations.

    ``parts`` are pairwise disjoint independent sets and ``covered`` maps each
    packed element to its part's index.  ``universe`` is the sorted sequence
    the sources come from; ``cursor`` sits at its first uncovered element.
    ``open`` lists, in part order, the parts below the rank: a basis accepts
    no element, so only these are asked for a sink.  ``packed`` counts the
    elements in all parts.  ``log`` maps each element moved since the last
    ``add_part`` to its part before that, None if uncovered, for ``undo``.
    """

    def __init__(self, M, universe, k):
        self.M = M
        self.full = M.rank()
        self.universe = universe
        self.cursor = 0
        self.parts = [set() for _ in range(k)]
        self.covered = {}
        self.open = list(range(k))
        self.packed = 0
        self.log = {}

    def add_part(self):
        """Append an empty part and start a new undo log."""
        self.open.append(len(self.parts))
        self.parts.append(set())
        self.log = {}

    def undo(self):
        """Put every element moved since the last ``add_part`` back where it
        was then; only the parts and ``covered`` are restored."""
        parts, covered = self.parts, self.covered
        for e, j in self.log.items():
            parts[covered[e]].discard(e)
            if j is None:
                del covered[e]
            else:
                parts[j].add(e)
                covered[e] = j

    def freeze(self, count):
        """The first ``count`` parts as frozensets, the run's end: its state
        is released, each part's set as it is frozen, to hold one packing."""
        parts, self.parts, self.covered, self.log = self.parts, None, None, None
        del parts[count:]
        for i, part in enumerate(parts):
            parts[i] = frozenset(part)
        return parts

    def grow(self, target, deadline):
        """Augment until the parts hold ``target`` elements in total.

        Returns None on success, or the reached set of the first augmentation
        that finds no path.  ``deadline`` (a ``time.monotonic()`` instant) is
        checked before each augmentation.
        """
        while self.packed < target:
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceLimitError("time limit exceeded",
                                         progress={"packed": self.packed})
            reached = self._augment()
            if reached is not None:
                return reached
        return None

    def _augment(self):
        """One BFS augmentation over the exchange digraph, a level at a time.

        Returns None after packing one more element, or the frozenset of
        reached elements when no augmenting path exists.  A level's sink is
        its first element, in BFS order, that an open part accepts, in part
        order; only when there is none are its arcs enqueued, part by part,
        the open parts' circuits reused and the full parts asked.
        """
        fc = self.M.fundamental_circuit
        parts, covered, universe = self.parts, self.covered, self.universe
        cur = self.cursor
        while cur < len(universe) and universe[cur] in covered:
            cur += 1
        self.cursor = cur
        # the sources, drawn lazily: the first one is often the sink
        level = (e for e in map(universe.__getitem__, range(cur, len(universe)))
                 if e not in covered)
        parent = {}  # element -> (predecessor element, part the element leaves)
        reached = set()
        while True:
            rows = []
            for x in level:
                reached.add(x)
                own = covered.get(x)
                row = {}
                for i in self.open:
                    if i != own:
                        circuit = fc(parts[i], x)
                        if circuit is None:
                            self._apply(x, i, parent)
                            return None
                        row[i] = circuit
                rows.append((x, own, row))
            level = []
            for x, own, row in rows:
                for i, part in enumerate(parts):
                    if i == own:
                        continue
                    circuit = row.get(i)
                    if circuit is None:
                        circuit = fc(part, x)
                        if circuit is None:
                            raise RuntimeError(
                                f"circuit oracle accepts element {x} into basis {i}")
                    for y in circuit:
                        if y not in reached:
                            reached.add(y)
                            parent[y] = (x, i)
                            level.append(y)
            if not level:
                return frozenset(reached)

    def _apply(self, x, sink, parent):
        """Insert x into part ``sink``, then replay the swaps back to the
        source: each predecessor takes the place its successor left."""
        parts, covered, i = self.parts, self.covered, sink
        while True:
            j = covered.get(x)
            if j is not None:
                parts[j].discard(x)
            parts[i].add(x)
            covered[x] = i
            self.log.setdefault(x, j)
            if x not in parent:
                break
            x, i = parent[x]
        self.packed += 1
        if len(parts[sink]) == self.full:
            self.open.remove(sink)


def pack_k_bases(M, k, deadline=None):
    """k pairwise disjoint bases of M, or a PackingCertificate that none exist.

    Each augmentation makes at most n*k ``M.fundamental_circuit`` queries for
    its exchange arcs; the finished packing is checked once, k independence
    calls.
    """
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    if k >= M.n and k * M.rank() > M.n:
        # each non-loop fits a part of its own, so the run would end reaching
        # the loops L: k*r(L) + |E - L| < k*r(E), found with no part built
        reached = frozenset(M.loops())
    else:
        union = _Union(M, range(M.n), k)
        reached = union.grow(k * union.full, deadline)
    if reached is not None:
        cert = PackingCertificate(reached, k)
        cert.check(M)
        return cert
    packing = BasePacking(union.freeze(k), M)
    packing.check()
    return packing


def max_disjoint_bases(M, deadline=None):
    """(b, packing, certificate) with b = b(M) maximal.

    One matroid-union run: after the parts have grown into k bases, an empty
    part is appended and the k+1 parts are grown to (k+1)*rank elements.  The
    first growth that finds no augmenting path is undone, which leaves the k
    bases as the packing, and its reached set is the certificate that k+1
    are impossible.  Rank-0 matroids return b = 0 with no certificate
    (degenerate: the empty set is the unique basis).
    """
    union = _Union(M, range(M.n), 0)
    if union.full == 0:
        return 0, BasePacking([], M), None
    while True:
        union.add_part()
        reached = union.grow(len(union.parts) * union.full, deadline)
        if reached is not None:
            union.undo()
            packing = BasePacking(union.freeze(len(union.parts) - 1), M)
            packing.check()
            cert = PackingCertificate(reached, len(packing) + 1)
            cert.check(M)
            return len(packing), packing, cert


def pack_into_independent(M, A, m, deadline=None):
    """Partition A into at most m disjoint independent sets, or certify failure.

    Success returns a list of nonempty frozensets with union exactly A.
    Failure returns a CoverCertificate A' <= A with m*rank(A') < |A'|.
    The run builds min(m, |A|) parts: a non-loop finds an empty one among
    the first |A|, and no part takes a loop, so more parts change nothing.
    """
    if m < 1:
        raise InputError(f"m must be positive, got {m}")
    A = _as_idset(A, M.n, "cover target")
    parts = min(m, len(A))
    union = _Union(M, sorted(A), parts)
    reached = union.grow(len(A), deadline)
    if reached is not None:
        cert = CoverCertificate(reached, m)
        cert.check(M)
        return cert
    cover = [p for p in union.freeze(parts) if p]
    _check_family(M, cover)
    if frozenset().union(*cover) != A:
        raise RuntimeError("independent cover does not cover its target")
    return cover

