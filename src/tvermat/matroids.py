"""Matroid oracles on a dense integer ground set.

A matroid here is an immutable oracle over elements 0..n-1, given by its
rank function, which determines it (Whitney 1935).  Each family states its
rank in closed form as ``_rank``; a set is independent iff its rank equals
its size, and ``_indep`` is overridden only where a measured workload needs
the shortcut (partition matroids in base packing).  Graphic,
uniform and partition matroids answer packing's exchange query,
``fundamental_circuit``, in closed form.
``_ground_rank`` is overridden where the rank of the whole ground set has
a closed form, so a large declared ground set is never built.
``_extensions``, the larger elements that keep a sorted face independent,
drives every face enumeration.  Graphic matroids label a forest's trees
once instead of ranking every candidate edge, and uniform matroids answer
with a range and no oracle call.  Loops (elements in no independent
singleton) stay in the ground set and lie in no face.
"""

from fractions import Fraction
from math import gcd

from .errors import InputError


def _as_idset(S, n, what="element set"):
    """Normalize an iterable of element ids to a frozenset, range-checked."""
    ids = frozenset(S)
    for e in ids:
        if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
            raise InputError(f"{what}: id {e!r} out of range 0..{n - 1}")
    return ids


class Matroid:
    """Independence/rank oracle over ground set {0, .., n-1}."""

    def __init__(self, n):
        if n < 0:
            raise InputError(f"ground size must be nonnegative, got {n}")
        self.n = n

    # -- subclass surface -------------------------------------------------

    def _rank(self, ids):
        """Rank of a validated set of ids, which it does not keep."""
        raise NotImplementedError

    def _indep(self, ids):
        """Independence of a validated set of ids, which it does not keep."""
        return self._rank(ids) == len(ids)

    def _ground_rank(self):
        """Rank of the ground set; a family with a closed form for it
        overrides this and never builds the ground set."""
        return self._rank(frozenset(range(self.n)))

    def _extensions(self, face):
        """The elements e past the last of the sorted independent ``face``
        (any e for the empty face) with face + e independent."""
        base = frozenset(face)
        return [e for e in range(face[-1] + 1 if face else 0, self.n) if self._indep(base | {e})]

    # -- public oracle ----------------------------------------------------

    def is_independent(self, S):
        return self._indep(_as_idset(S, self.n))

    def rank(self, A=None):
        """Size of a maximal independent subset of A (the ground set if None)."""
        return self._ground_rank() if A is None else self._rank(_as_idset(A, self.n))

    def fundamental_circuit(self, part, x):
        """Exchange partners of x (not in ``part``) for the independent set ``part``.

        None when part + x is independent.  Otherwise the sorted elements y
        of ``part`` with part - y + x independent: with x they form the
        unique circuit of part + x.  Subclasses with a closed form override
        this oracle-call loop.
        """
        base = frozenset(part)
        if self._indep(base | {x}):
            return None
        return [y for y in sorted(base) if self._indep((base - {y}) | {x})]

    def loops(self):
        """The elements in no independent set: no extension of the empty face."""
        return sorted(set(range(self.n)).difference(self._extensions(())))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class UniformMatroid(Matroid):
    """U(r, n): every set of at most r elements is independent."""

    def __init__(self, r, n):
        super().__init__(n)
        if r < 0 or r > n:
            raise InputError(f"uniform rank must satisfy 0 <= r <= n, got r={r}, n={n}")
        self.r = r

    def _rank(self, ids):
        return min(len(ids), self.r)

    def _ground_rank(self):
        return self.r

    def _extensions(self, face):
        return range(face[-1] + 1 if face else 0, self.n if len(face) < self.r else 0)

    def fundamental_circuit(self, part, x):
        return None if len(part) < self.r else sorted(part)

    def __repr__(self):
        return f"UniformMatroid({self.r}, {self.n})"


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph; ground elements are edge indices.

    Self-loop edges are loops of the matroid; parallel edges are permitted.
    """

    def __init__(self, num_vertices, edges):
        super().__init__(len(edges))
        if num_vertices < 0:
            raise InputError("vertex count must be nonnegative")
        self.num_vertices = num_vertices
        self.edges = []
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InputError(f"edge ({u},{v}) has endpoint outside 0..{num_vertices - 1}")
            self.edges.append((u, v))

    def _rank(self, ids):
        # union-find; number of successful merges = rank of the edge set
        parent = {}

        def find(x):
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != root:
                parent[x], x = root, parent[x]
            return root

        merges = 0
        for e in sorted(ids):
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merges += 1
        return merges

    def _extensions(self, face):
        """The edges past the last of ``face`` whose ends lie in different
        trees of that forest, whose components are labelled once."""
        label = {}  # vertex -> its tree's label; an untouched vertex is its own
        for e in face:
            u, v = self.edges[e]
            lu, lv = label.get(u, u), label.get(v, v)
            for x, lx in label.items():
                if lx == lv:
                    label[x] = lu
            label[u] = label[v] = lu
        get, start = label.get, face[-1] + 1 if face else 0
        return [e for e, (u, v) in enumerate(self.edges[start:], start) if get(u, u) != get(v, v)]

    def fundamental_circuit(self, part, x):
        """The edges of the forest ``part`` on the path between the ends of x.

        One walk from one end; None when the other end lies in another tree.
        """
        u, v = self.edges[x]
        if u == v:
            return []
        adj = {}
        for e in part:
            a, b = self.edges[e]
            adj.setdefault(a, []).append((b, e))
            adj.setdefault(b, []).append((a, e))
        via = {u: None}  # vertex -> (previous vertex, edge walked to reach it)
        stack = [u]
        while stack and v not in via:
            w = stack.pop()
            for nxt, e in adj.get(w, ()):
                if nxt not in via:
                    via[nxt] = (w, e)
                    stack.append(nxt)
        if v not in via:
            return None
        path = []
        w = v
        while w != u:
            w, e = via[w]
            path.append(e)
        return sorted(path)


class PartitionMatroid(Matroid):
    """Disjoint blocks with capacities; a set is independent iff it meets
    every block in at most its capacity."""

    def __init__(self, blocks, capacities):
        seen = set()
        flat = []
        for blk in blocks:
            for e in blk:
                if e in seen:
                    raise InputError(f"element {e} appears in two blocks")
                seen.add(e)
                flat.append(e)
        if seen != set(range(len(flat))):
            raise InputError("blocks must partition a contiguous range 0..n-1")
        if len(capacities) != len(blocks):
            raise InputError("one capacity per block required")
        if any(c < 0 for c in capacities):
            raise InputError("capacities must be nonnegative")
        super().__init__(len(flat))
        self.blocks = [frozenset(blk) for blk in blocks]
        self.capacities = list(capacities)
        self._block_of = {e: i for i, blk in enumerate(self.blocks) for e in blk}

    def _rank(self, ids):
        return sum(min(len(ids & blk), cap) for blk, cap in zip(self.blocks, self.capacities))

    def _ground_rank(self):
        return sum(map(min, map(len, self.blocks), self.capacities))

    def _indep(self, ids):
        counts = {}
        for e in ids:
            i = self._block_of[e]
            counts[i] = counts.get(i, 0) + 1
            if counts[i] > self.capacities[i]:
                return False
        return True

    def fundamental_circuit(self, part, x):
        """The members of ``part`` in the block of x when they fill it."""
        i = self._block_of[x]
        same = self.blocks[i].intersection(part)
        return sorted(same) if len(same) == self.capacities[i] else None


def colourful_matroid(r, d):
    """Partition matroid with d+1 colour classes of r elements, capacity 1.

    Its independence complex is the colourful complex on r(d+1) vertices:
    rank d+1, and the transversals give exactly r pairwise disjoint bases.
    """
    if r < 1 or d < 0:
        raise InputError(f"need r >= 1 and d >= 0, got r={r}, d={d}")
    blocks = [list(range(c * r, (c + 1) * r)) for c in range(d + 1)]
    return PartitionMatroid(blocks, [1] * (d + 1))


# Miller-Rabin with these twelve bases is exact for every n < 2**64 (it is
# for every n below 3.18e23; Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin primality; n >= 2**64 is an input error."""
    if n >= 1 << 64:
        raise InputError(f"primality is decided only below 2**64, got {n}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _scale_to_int(col):
    """Clear denominators of a rational column; scaling preserves dependence."""
    den = 1
    for x in col:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in col]


def _mod_p(x, p):
    """The image of the rational x in GF(p): numerator times the inverse of
    the denominator."""
    if x.denominator % p == 0:
        raise InputError(f"entry {x} has no value in GF({p}): {p} divides its denominator")
    return x.numerator * pow(x.denominator, -1, p) % p


class LinearMatroid(Matroid):
    """Columns of a matrix over Q (field=None) or GF(p) (field=p, p prime).

    Independence is decided by exact elimination: fraction-free with big
    integers over Q, modular over GF(p).  Zero columns are loops.
    """

    def __init__(self, columns, field=None):
        super().__init__(len(columns))
        if field is not None and not _is_prime(field):
            raise InputError(f"field must be None (rationals) or a prime, got {field}")
        self.field = field
        if not columns:
            self.height = 0
            self.columns = []
            return
        self.height = len(columns[0])
        cols = []
        for col in columns:
            if len(col) != self.height:
                raise InputError("all columns must have the same height")
            if field is None:
                cols.append(_scale_to_int([Fraction(x) for x in col]))
            else:
                cols.append([_mod_p(Fraction(x), field) for x in col])
        self.columns = cols

    def _rank(self, ids):
        cols = [self.columns[e] for e in sorted(ids)]
        if self.field is not None:
            return _rank_mod_p(cols, self.height, self.field)
        return _rank_fraction_free(cols, self.height)


def _rank_mod_p(cols, height, p):
    rows = [[col[i] % p for col in cols] for i in range(height)]
    rank = 0
    for c in range(len(cols)):
        piv = next((i for i in range(rank, height) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, height):
            f = rows[i][c]
            if f:
                m = f * inv % p
                rows[i] = [(a - m * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rank_fraction_free(cols, height):
    """Bareiss elimination on integer columns; division-free pivoting, exact."""
    rows = [[col[i] for col in cols] for i in range(height)]
    w = len(cols)
    rank = 0
    prev = 1
    for c in range(w):
        piv = next((i for i in range(rank, height) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, height):
            ri = rows[i]
            f = ri[c]
            # one-step Bareiss update: entries stay integral, divide by prior pivot
            rows[i] = [(pr[c] * a - f * b) // prev for a, b in zip(ri, pr)]
        prev = pr[c]
        rank += 1
    return rank


def _maximal_sets(n, sets):
    """The listed sets that no other listed set contains, deduped, in sorted order."""
    sets = {_as_idset(s, n, "maximal set") for s in sets} or {frozenset()}
    top = max(map(len, sets))  # a set of the largest size has no proper superset
    return sorted(
        (s for s in sets if len(s) == top or not any(s < t for t in sets)), key=sorted
    )


class ExplicitMatroid(Matroid):
    """Matroid given by its list of maximal independent sets (bases).

    Construction does not re-check the exchange axiom; run
    :func:`validate_matroid` on untrusted input first.
    """

    def __init__(self, n, maximal_sets):
        super().__init__(n)
        self.maximal_sets = _maximal_sets(n, maximal_sets)

    def _rank(self, ids):
        return max(len(ids & b) for b in self.maximal_sets)

    def _ground_rank(self):
        return max(map(len, self.maximal_sets))


def validate_matroid(n, maximal_sets):
    """Check that the undominated sets of ``maximal_sets`` are a matroid's bases.

    They must share one size and satisfy basis exchange: for listed B1, B2
    and x in B1 - B2, some y in B2 - B1 makes B1 - x + y listed.  Returns
    (True, None) or (False, (I, J)) where I, J are independent, |I| < |J|,
    and no x in J - I keeps I + x independent.  Time is polynomial in the
    size of the list.
    """
    bases = _maximal_sets(n, maximal_sets)
    small = min(bases, key=len)
    large = max(bases, key=len)
    if len(small) < len(large):
        return False, (small, large)
    # exchange for (B1, x) says: every listed B2 meets the y with B1 - x + y
    # listed (x is one of them), so it depends on B1 - x alone
    completions = {}
    for b in bases:
        for x in sorted(b):
            completions.setdefault(b - {x}, set()).add(x)
    for rest, ys in completions.items():
        for b in bases:
            if ys.isdisjoint(b):
                return False, (rest, b)
    return True, None

