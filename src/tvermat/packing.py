"""Disjoint base packings and independent-set covers via matroid union.

The workhorse is a breadth-first augmenting-path search in the exchange
digraph: maintain k pairwise disjoint independent sets, and per augmentation
grow their total size by one.  Sources are uncovered elements; following an
arc x -> y (y in part i, y in the fundamental circuit of x w.r.t. part i)
means "swap x into part i, y out"; a sink is an element insertable into some
part outright.  Both come from one query per (x, part),
``Matroid.fundamental_circuit``, which graphic and uniform matroids answer in
closed form and the other oracles by independence calls.  Applying a
BFS-shortest path keeps all swaps simultaneously valid.  When no augmenting
path exists, the set of reachable elements is an exact Edmonds-style
certificate of maximality.  b(M) comes from one such run that appends an
empty part each time the parts have grown into bases.  Each returned family
is checked once, by ``_check_family``, before it leaves this module.
"""

import time
from collections import deque
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


def _augment(M, parts, universe):
    """One BFS augmentation over the exchange digraph.

    parts: list of disjoint independent sets (mutated on success).
    universe: elements allowed to participate (sources drawn from here).
    Returns None after growing total size by one, or the frozenset of
    reachable elements when no augmenting path exists.
    """
    covered = {}
    for i, part in enumerate(parts):
        for e in part:
            covered[e] = i
    sources = [e for e in sorted(universe) if e not in covered]

    parent = {}  # element -> (predecessor element, part the element leaves)
    reached = set()
    queue = deque()
    for e in sources:
        reached.add(e)
        queue.append(e)

    while queue:
        x = queue.popleft()
        # the first part (fixed order => determinism) that accepts x is the
        # sink; the arcs of x are enqueued, in part order, only if none does
        circuits = []
        for i, part in enumerate(parts):
            if x in part:
                continue
            circuit = M.fundamental_circuit(part, x)
            if circuit is None:
                # unwind: insert x into part i, then replay the recorded swaps
                parts[i].add(x)
                cur = x
                while cur in parent:
                    prev, j = parent[cur]
                    parts[j].discard(cur)
                    parts[j].add(prev)
                    cur = prev
                return None
            circuits.append((i, circuit))
        for i, circuit in circuits:
            for y in circuit:
                if y not in reached:
                    reached.add(y)
                    parent[y] = (x, i)
                    queue.append(y)
    return frozenset(reached)


def _grow(M, parts, universe, target, deadline=None):
    """Augment ``parts`` until they hold ``target`` elements in total.

    Returns None on success, or the reached set of the first augmentation
    that finds no path.  ``deadline`` (a ``time.monotonic()`` instant) is
    checked before each augmentation.
    """
    while (packed := sum(len(p) for p in parts)) < target:
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError("time limit exceeded", progress={"packed": packed})
        reached = _augment(M, parts, universe)
        if reached is not None:
            return reached
    return None


def pack_k_bases(M, k, deadline=None):
    """k pairwise disjoint bases of M, or a PackingCertificate that none exist.

    Each augmentation makes at most n*k ``M.fundamental_circuit`` queries for
    its exchange arcs; the finished packing is checked once, k independence
    calls.
    """
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    parts = [set() for _ in range(k)]
    reached = _grow(M, parts, range(M.n), k * M.rank(), deadline)
    if reached is not None:
        cert = PackingCertificate(reached, k)
        cert.check(M)
        return cert
    packing = BasePacking([frozenset(p) for p in parts], M)
    packing.check()
    return packing


def max_disjoint_bases(M, deadline=None):
    """(b, packing, certificate) with b = b(M) maximal.

    One matroid-union run: after the parts have grown into k bases, an empty
    part is appended and the k+1 parts are grown to (k+1)*rank elements.  The
    first growth that finds no augmenting path leaves the k bases as the
    packing and its reached set as the certificate that k+1 are impossible.
    Rank-0 matroids return b = 0 with no certificate (degenerate: the empty
    set is the unique basis).
    """
    full = M.rank()
    if full == 0:
        return 0, BasePacking([], M), None
    parts = []
    while True:
        bases = [frozenset(p) for p in parts]
        parts.append(set())
        reached = _grow(M, parts, range(M.n), len(parts) * full, deadline)
        if reached is not None:
            packing = BasePacking(bases, M)
            packing.check()
            cert = PackingCertificate(reached, len(parts))
            cert.check(M)
            return len(bases), packing, cert


def pack_into_independent(M, A, m, deadline=None):
    """Partition A into at most m disjoint independent sets, or certify failure.

    Success returns a list of nonempty frozensets with union exactly A.
    Failure returns a CoverCertificate A' <= A with m*rank(A') < |A'|.
    """
    if m < 1:
        raise InputError(f"m must be positive, got {m}")
    A = _as_idset(A, M.n, "cover target")
    parts = [set() for _ in range(m)]
    reached = _grow(M, parts, A, len(A), deadline)
    if reached is not None:
        cert = CoverCertificate(reached, m)
        cert.check(M)
        return cert
    cover = [frozenset(p) for p in parts if p]
    _check_family(M, cover)
    if frozenset().union(*cover) != A:
        raise RuntimeError("independent cover does not cover its target")
    return cover


def partition_almost_equal(b, k):
    """Split {1..b} into k contiguous index blocks, sizes within floor/ceil of b/k.

    Larger blocks come first; deterministic.
    """
    if b < 0 or k < 1:
        raise InputError(f"need b >= 0 and k >= 1, got b={b}, k={k}")
    q, r = divmod(b, k)
    out = []
    start = 1
    for i in range(k):
        size = q + 1 if i < r else q
        out.append(list(range(start, start + size)))
        start += size
    return out
