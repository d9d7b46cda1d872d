"""Facts the benchmark checks reports against, computed without tvermat.

Every function here is written from the mathematics, not from the code under
test: rank oracles for the matroid types the benchmark generates, closed forms
for b(M), the chessboard connectivity bound of Björner–Lovász–Vrećica–Živaljević,
the threshold arithmetic of the Tverberg theorem, and an exact re-check of
Tverberg witnesses and packing certificates.  A checker returns None when the
report is correct and a one-line reason otherwise.
"""

from fractions import Fraction

# Reduced Betti numbers that need the exact integer confirmation.  Pinned once
# with ``tvermat.homology.betti_reduced(chessboard(k, m, trunc=up_to + 1),
# up_to, exact_only=True)`` at commit f9b2d9c (exact elimination only, no
# mod-p filter).  The k-fold deleted join of U(1, m) is C(k, m).
PINNED_BETTI = {
    (5, 7): (0, 0, 0, 98),
    (3, 4): (0, 2),
    (5, 6): (0, 0, 0, 152),
    (4, 6): (0, 0, 5),
}


# -- rank oracles ----------------------------------------------------------------


def uniform_rank(r):
    return lambda ids: min(len(ids), r)


def graphic_rank(edges):
    def rank(ids):
        parent = {}

        def find(v):
            root = v
            while parent.get(root, root) != root:
                root = parent[root]
            while v != root:
                parent[v], v = root, parent.get(v, v)
            return root

        merged = 0
        for e in ids:
            u, v = edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merged += 1
        return merged

    return rank


def partition_rank(blocks, capacities):
    block_of = {e: i for i, blk in enumerate(blocks) for e in blk}

    def rank(ids):
        used = [0] * len(blocks)
        for e in ids:
            used[block_of[e]] += 1
        return sum(min(u, c) for u, c in zip(used, capacities))

    return rank


def linear_rank(columns, p=None):
    """Column rank over GF(p), or over Q when p is None (columns of Fractions)."""

    def rank(ids):
        rows = [list(col) for col in (columns[e] for e in sorted(ids))]
        r = 0
        height = len(columns[0]) if columns else 0
        for c in range(height):
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(r + 1, len(rows)):
                if rows[i][c] != 0:
                    if p is None:
                        f = rows[i][c] / rows[r][c]
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                    else:
                        f = rows[i][c] * pow(rows[r][c], p - 2, p) % p
                        rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    return rank


# -- packing ---------------------------------------------------------------------


def _disjoint(sets):
    seen = set()
    for s in sets:
        if seen & set(s):
            return False
        seen |= set(s)
    return True


def check_bases(payload, n, rank, expected_b=None):
    full = rank(range(n))
    packing = payload.get("packing")
    b = payload.get("b")
    if payload.get("rank") != full:
        return f"rank {payload.get('rank')} != {full}"
    if not isinstance(packing, list) or len(packing) != b:
        return "packing size differs from b"
    if expected_b is not None and b != expected_b:
        return f"b = {b}, expected {expected_b}"
    if not _disjoint(packing):
        return "packed bases are not disjoint"
    if any(len(B) != full or rank(B) != full for B in packing):
        return "a packed set is not a basis"
    if full == 0:
        return None
    cert = payload.get("certificate")
    if payload.get("certificate_for") != b + 1 or not cert or cert.get("k") != b + 1:
        return "missing certificate for b + 1"
    return _packing_certificate(cert["witness_set"], b + 1, n, rank, full)


def _packing_certificate(A, k, n, rank, full):
    if k * rank(A) + (n - len(set(A))) >= k * full:
        return f"certificate does not exclude {k} disjoint bases"
    return None


def check_pack_k(payload, k, n, rank):
    full = rank(range(n))
    if payload.get("packed"):
        bases = payload.get("bases")
        if len(bases) != k or not _disjoint(bases):
            return "packing is not k disjoint sets"
        if any(len(B) != full or rank(B) != full for B in bases):
            return "a packed set is not a basis"
        return None
    return _packing_certificate(payload["certificate"]["witness_set"], k, n, rank, full)


def check_cover(payload, subset, m, rank):
    if payload.get("covered"):
        parts = payload.get("parts")
        if len(parts) > m or not _disjoint(parts):
            return "cover parts overlap or exceed m"
        if set().union(*map(set, parts)) != set(subset):
            return "cover parts do not cover the subset"
        if any(rank(P) != len(P) for P in parts):
            return "a cover part is dependent"
        return None
    A = payload["certificate"]["witness_set"]
    if not set(A) <= set(subset) or m * rank(A) >= len(A):
        return "invalid cover certificate"
    return None


# -- homology ------------------------------------------------------------------


def chessboard_nu(k, m):
    """BLVZ: C(k, m) is (nu - 2)-connected with nu = min(k, m, floor((k+m+1)/3))."""
    return min(k, m, (k + m + 1) // 3)


def check_betti(betti, expected):
    if list(betti) != list(expected):
        return f"betti {list(betti)} != {list(expected)}"
    return None


def check_connectivity(rep, bound, betti):
    """``rep`` is a ConnectivityReport payload; ``betti`` the expected values."""
    if rep.get("bound") != bound:
        return f"bound {rep.get('bound')} != {bound}"
    bad = check_betti(rep.get("betti_checked", ()), betti)
    if bad:
        return bad
    first = next((i for i, x in enumerate(betti) if x), None)
    if rep.get("first_nonvanishing") != first:
        return f"first_nonvanishing {rep.get('first_nonvanishing')} != {first}"
    if rep.get("verified") != (first is None):
        return "verdict contradicts the Betti numbers"
    if rep.get("vanishing") != [x == 0 for x in betti]:
        return "vanishing flags contradict the Betti numbers"
    return None


# -- Tverberg ----------------------------------------------------------------


def threshold_facts(b, d):
    """(t*, prime, inequality) for the sqrt(b)/4 threshold, by integer arithmetic."""
    t = 1
    while 16 * t * t < b:
        t += 1

    def is_prime(q):
        return q >= 2 and all(q % f for f in range(2, int(q ** 0.5) + 1))

    prime = max((q for q in range(2, b + 1) if 16 * q * q >= b and 4 * q * q <= b
                 and is_prime(q)), default=None)
    ineq = None
    if prime is not None:
        ineq = Fraction(b * (d + 1), -(-b // prime) + 1) - 2 >= (d + 1) * (prime - 1) - 1
    return t, prime, ineq


def check_witness(witness, t, points, independent):
    """Re-validate a witness from the report's strings against the points the
    benchmark wrote (element id -> tuple of Fractions)."""
    if witness is None:
        return "no witness"
    faces = witness["faces"]
    if len(faces) != t:
        return f"{len(faces)} faces, expected {t}"
    if not _disjoint(faces) or any(not f or list(f) != sorted(set(f)) for f in faces):
        return "witness faces are not disjoint increasing sets"
    if any(not independent(f) for f in faces):
        return "a witness face is dependent"
    point = [Fraction(x) for x in witness["point"]]
    dim = len(next(iter(points.values())))
    if len(point) != dim or len(witness["coefficients"]) != t:
        return "witness has the wrong shape"
    for face, lam in zip(faces, witness["coefficients"]):
        lam = [Fraction(x) for x in lam]
        if len(lam) != len(face) or any(x < 0 for x in lam) or sum(lam) != 1:
            return "coefficients are not convex"
        for ell in range(dim):
            if sum(x * points[e][ell] for x, e in zip(lam, face)) != point[ell]:
                return "a hull misses the common point"
    return None
