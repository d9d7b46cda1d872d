"""The benchmark's workloads: seeded inputs, CLI argument lists and checks.

``build(name, seed, tiny)`` writes every input file of a workload into the
current directory and returns its fixed list of instances.  The same seed gives
the same files and argument lists.  Each instance carries the exit code it
must give and a checker that tests its report against ``facts``, never
against tvermat itself.  ``tiny`` shrinks every instance for the self-test.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import facts

# Instances left out on purpose: each exposes a known defect that would turn a
# run into a hang or a memory blowup rather than a measurement.
NOT_RUN = (
    "verify-theorem U(2,512) d=1: killed after more than 14 min; "
    "_TupleStream._complete_infeasible yields every tuple (the tverberg "
    "workload runs the same path at U(2,160))",
    "verify-corollary K6 k=3: 25 s and 781 MB peak RSS before the 5e6 face cap",
)


@dataclass
class Instance:
    name: str
    argv: list
    expect_exit: int
    check: Callable  # report dict -> None if correct, else a reason


class _Writer:
    """Writes input files into the current directory, numbered in order."""

    def __init__(self):
        self.count = 0

    def path(self, stem, ext):
        self.count += 1
        return f"{self.count:03d}-{stem}.{ext}"

    def matroid(self, stem, body):
        path = self.path(stem, "matroid")
        with open(path, "w") as fh:
            json.dump({"format-version": 1, **body}, fh)
        return path

    def points(self, stem, points):
        path = self.path(stem, "pts")
        dim = len(points[0])
        with open(path, "w") as fh:
            fh.write(f"format-version: 1\nd={dim}\n")
            for e, pt in enumerate(points):
                fh.write(f"{e}: {' '.join(str(c) for c in pt)}\n")
        return path


def _complete_graph(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _relabel(edges, n, rng):
    """Seeded vertex relabelling and edge order of a graph."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
    rng.shuffle(out)
    return out


def _graphic(w, stem, n, edges):
    return w.matroid(stem, {"type": "graphic", "vertices": n,
                            "edges": [list(e) for e in edges]})


def _expect(report, outcome, check):
    if report["outcome"] != outcome:
        return f"outcome {report['outcome']!r}, expected {outcome!r}"
    return check(report["payload"])


def _cmd(*args):
    return [*args, "--threads", "1"]


# -- packing ---------------------------------------------------------------------


def _packing(w, rng, tiny):
    out = []

    def add(name, argv, check):
        out.append(Instance(name, _cmd(*argv), 0,
                            lambda r: _expect(r, "verified", check)))

    def bases(stem, path, n, rank, expected_b=None):
        add(f"bases-{stem}", ("bases", "--matroid", path),
            lambda p: facts.check_bases(p, n, rank, expected_b))

    def graph(stem, nv, edges):
        return _graphic(w, stem, nv, edges), len(edges), facts.graphic_rank(edges)

    # Complete graphs with edges in lexicographic order, as users write them:
    # b(K_n) = floor(n/2) by Nash-Williams–Tutte.
    for nv in ((6, 7) if tiny else (16, 18)):
        path, n, rank = graph(f"k{nv}-lex", nv, _complete_graph(nv))
        bases(f"k{nv}-lex", path, n, rank, nv // 2)

    nv = 6 if tiny else 14
    path, n, rank = graph(f"k{nv}-lex", nv, _complete_graph(nv))
    add(f"pack-k{nv}-lex", ("pack", "--matroid", path, "--k", str(nv // 2)),
        lambda p, n=n, k=nv // 2, rank=rank: facts.check_pack_k(p, k, n, rank)
        or (None if p["packed"] else f"K_{2 * k} holds {k} disjoint spanning trees"))

    nv = 8 if tiny else 20
    path, n, rank = graph(f"k{nv}-shuffled", nv, _relabel(_complete_graph(nv), nv, rng))
    bases(f"k{nv}-shuffled", path, n, rank, nv // 2)

    r, n = 2, (16 if tiny else 256)
    path = w.matroid(f"u{r}-{n}", {"type": "uniform", "rank": r, "size": n})
    bases(f"u{r}-{n}", path, n, facts.uniform_rank(r), n // r)

    # Random columns; b has no closed form here, so the packing and the
    # certificate are re-checked with the benchmark's own elimination.
    height, n = (3, 9) if tiny else (4, 24)
    cols = [[rng.randrange(3) for _ in range(height)] for _ in range(n)]
    path = w.matroid("gf3", {"type": "linear", "field": "GF(3)",
                             "columns": [[str(x) for x in c] for c in cols]})
    bases("gf3", path, n, facts.linear_rank(cols, 3))

    height, n = (2, 6) if tiny else (3, 15)
    cols = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(height)]
            for _ in range(n)]
    path = w.matroid("q", {"type": "linear", "field": "Q",
                           "columns": [[str(x) for x in c] for c in cols]})
    bases("q", path, n, facts.linear_rank(cols))

    sizes = [rng.randint(4, 8) for _ in range(3 if tiny else 6)]
    caps = [rng.randint(1, 2) for _ in sizes]
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    path = w.matroid("partition", {"type": "partition", "blocks": blocks,
                                   "capacities": caps})
    bases("partition", path, start, facts.partition_rank(blocks, caps),
          min(size // c for size, c in zip(sizes, caps)))

    # Cover the edges of a complete graph by m forests (Nash-Williams).
    nv = 6 if tiny else 10
    path, n, rank = graph(f"k{nv}-cover", nv, _relabel(_complete_graph(nv), nv, rng))
    m = -(-n // (nv - 1))
    add(f"cover-k{nv}",
        ("pack", "--matroid", path, "--subset", ",".join(map(str, range(n))), "--m", str(m)),
        lambda p: facts.check_cover(p, range(n), m, rank)
        or (None if p.get("covered") else "K_n is coverable"))
    return out


# -- tverberg --------------------------------------------------------------------


_JITTER = 16  # jittered coordinates are (16a + j) / 16q for a base a / q


def _order_type(points):
    """Per-axis order and the orientation of every (d+1)-subset.

    The Tverberg search depends on the points only through these: box
    pruning compares coordinates on each axis, and whether the hulls of
    disjoint sets meet is fixed by the orientations.
    """
    d = len(points[0])
    scale = 840 * _JITTER  # clears every denominator
    ints = [[int(c * scale) for c in p] for p in points]
    axes = tuple(tuple(sorted(set(col)).index(v) for v in col) for col in zip(*ints))
    if d == 1:
        return axes
    signs = tuple(
        _sign_det([[a - b for a, b in zip(ints[i], ints[face[0]])] for i in face[1:]])
        for face in combinations(range(len(points)), d + 1)
    )
    return axes, signs


def _sign_det(rows):
    """Sign of an integer determinant (fraction-free Bareiss elimination)."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * (m[-1][-1] > 0) - sign * (m[-1][-1] < 0)


def _stable_points(stem, rng, n, d, keep_order_type=True):
    """Seeded points whose search path does not depend on the seed.

    A base configuration of distinct points comes from an RNG seeded by the
    instance name alone.  The run's ``rng`` moves every coordinate by less
    than 1/(2q), q its denominator.  A move that changes the order type is
    drawn again at half the size, so every seed gives other coordinates but
    the same tuples examined and the same hull tests.
    ``keep_order_type=False`` skips the check, for configurations too large
    to check cheaply.
    """
    master = random.Random(stem)
    base, seen = [], set()
    while len(base) < n:  # distinct base points
        p = [(master.randint(-50, 50), master.randint(1, 8)) for _ in range(d)]
        key = tuple(Fraction(a, q) for a, q in p)
        if key not in seen:
            seen.add(key)
            base.append(p)
    want = None
    span = _JITTER // 2 - 1
    while True:
        pts = [tuple(Fraction(_JITTER * a + rng.randint(-span, span), _JITTER * q)
                     for a, q in p) for p in base]
        if not keep_order_type or span == 0:
            return pts
        if want is None:
            want = _order_type([tuple(Fraction(a, q) for a, q in p) for p in base])
        if _order_type(pts) == want:
            return pts
        span //= 2


def _tverberg(w, rng, tiny):
    out = []
    matroids = {}

    def search(stem, r, pts, t):
        n = len(pts)
        if (r, n) not in matroids:
            matroids[r, n] = w.matroid(f"u{r}-{n}", {"type": "uniform", "rank": r,
                                                     "size": n})
        mpath = matroids[r, n]
        ppath = w.points(stem, pts)
        coords = dict(enumerate(pts))

        def check(p):
            return facts.check_witness(p["witness"], t, coords,
                                       lambda f: len(f) <= r)

        return mpath, ppath, check

    # Tverberg's theorem: (k-1)(d+1)+1 points in R^d split into k parts with a
    # common hull point, and by Caratheodory each part can be cut to at most
    # d+1 points, so a witness at t = k always exists.
    per_pair = 2 if tiny else 40
    for d, k in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        for i in range(per_pair):
            stem = f"d{d}-k{k}-{i}"
            pts = _stable_points(stem, rng, (k - 1) * (d + 1) + 1, d)
            mpath, ppath, check = search(stem, d + 1, pts, k)
            out.append(Instance(
                f"tverberg-{stem}",
                _cmd("tverberg", "--matroid", mpath, "--points", ppath, "--t", str(k)),
                0, lambda r, c=check: _expect(r, "witness-found", c),
            ))

    # verify-theorem at t* = ceil(sqrt(b)/4) with b(U(d+1, n)) = floor(n/(d+1)).
    for d, n in (((1, 40), (2, 24)) if tiny else ((1, 160), (2, 60))):
        stem = f"theorem-d{d}-n{n}"
        b = n // (d + 1)
        t_star, prime, ineq = facts.threshold_facts(b, d)
        # In d = 2 the search stops within a few tuples and face enumeration
        # dominates, so the C(n, 3) orientations are not worth checking.
        pts = _stable_points(stem, rng, n, d, keep_order_type=d == 1)
        mpath, ppath, check = search(stem, d + 1, pts, t_star)

        def theorem_check(p, b=b, d=d, t_star=t_star, prime=prime, ineq=ineq,
                          check=check):
            want = {"b": b, "rank": d + 1, "dim": d, "t_star": t_star,
                    "prime": prime, "inequality_holds": ineq,
                    "falsification_candidate": False}
            got = {key: p.get(key) for key in want}
            return f"{got} != {want}" if got != want else check(p)

        out.append(Instance(
            f"verify-theorem-d{d}-n{n}",
            _cmd("verify-theorem", "--matroid", mpath, "--points", ppath),
            0, lambda r, c=theorem_check: _expect(r, "witness-found", c),
        ))

    # Exhaustive search with no witness: t disjoint faces of at most 2 of n
    # points on a line use at least 2t - n singletons, and two singleton
    # hulls meet only at equal coordinates.  Distinct points leave none.
    n, t = (7, 5) if tiny else (10, 6)
    pts = _stable_points("exhaustive", rng, n, 1)
    mpath, ppath, _ = search("exhaustive", 2, pts, t)
    out.append(Instance(
        f"exhaustive-u2-{n}-t{t}",
        _cmd("tverberg", "--matroid", mpath, "--points", ppath, "--t", str(t)),
        0, lambda r: _expect(r, "verified", lambda p: None if (
            p["witness"] is None and p.get("exhausted")) else "expected no witness"),
    ))
    return out


# -- homology ----------------------------------------------------------------------


def _connectivity(name, argv, expect_exit, bound, betti, extra=None):
    outcome = "verified" if expect_exit == 0 else "falsification-candidate"

    def check(p):
        if extra is not None:
            got = {key: p.get(key) for key in extra}
            if got != extra:
                return f"{got} != {extra}"
        rep = p.get("report", p)
        return facts.check_connectivity(rep, bound, betti)

    return Instance(name, argv, expect_exit, lambda r: _expect(r, outcome, check))


def _chessboard_homology(k, m, up_to):
    """`homology --chessboard`: BLVZ zeros through nu-2, pinned values above."""
    nu = facts.chessboard_nu(k, m)
    pinned = facts.PINNED_BETTI.get((k, m))
    if pinned is None:
        if up_to > nu - 2:
            raise ValueError(f"C({k},{m}) has no pinned Betti numbers above {nu - 2}")
        betti = (0,) * (up_to + 1)
    else:
        betti = pinned[: up_to + 1]
        if any(betti[: nu - 1]):
            raise ValueError("pinned Betti numbers contradict BLVZ")
    return Instance(
        f"homology-chessboard-{k}-{m}",
        _cmd("homology", "--chessboard", f"{k},{m}", "--up-to", str(up_to)), 0,
        lambda r: _expect(r, "verified", lambda p: facts.check_betti(p["betti"], betti)),
    )


def _scan(w, k, n):
    """conjecture-scan on U(1, n): the k-fold deleted join is C(k, n)."""
    path = w.matroid(f"u1-{n}", {"type": "uniform", "rank": 1, "size": n})
    target = k - 2
    nu = facts.chessboard_nu(k, n)
    if target <= nu - 2:
        betti = (0,) * (target + 1)
    else:
        betti = facts.PINNED_BETTI[(k, n)][: target + 1]
    verified = not any(betti)
    return _connectivity(
        f"conjecture-scan-u1-{n}-k{k}",
        _cmd("conjecture-scan", "--matroid", path, "--k", str(k)),
        0 if verified else 1, target, betti,
        extra={"b": n, "rank": 1, "k": k, "target": target, "verdict": verified},
    )


def _corollary(w, stem, body, n, b, rank, k):
    """verify-corollary: a theorem, so every Betti number through c vanishes."""
    path = w.matroid(stem, body)
    c = (b * rank) // (-(-b // k) + 1) - 2
    return _connectivity(
        f"verify-corollary-{stem}-k{k}",
        _cmd("verify-corollary", "--matroid", path, "--k", str(k)), 0, c,
        (0,) * (c + 1),
    )


def _homology_vanishing(w, rng, tiny):
    out = []
    r, n = (2, 5) if tiny else (3, 9)
    out.append(_corollary(w, f"u{r}-{n}", {"type": "uniform", "rank": r, "size": n},
                          n, n // r, r, 2 if tiny else 3))
    nv = 4 if tiny else 5
    edges = _relabel(_complete_graph(nv), nv, rng)
    out.append(_corollary(w, f"k{nv}", {"type": "graphic", "vertices": nv,
                                        "edges": [list(e) for e in edges]},
                          len(edges), nv // 2, nv - 1, 2))
    # Matroid complexes are (rank-2)-connected (Björner).
    nv = 5 if tiny else 6
    edges = _relabel(_complete_graph(nv), nv, rng)
    path = _graphic(w, f"k{nv}-conn", nv, edges)
    out.append(_connectivity(
        f"verify-matroid-conn-k{nv}",
        _cmd("verify-matroid-conn", "--matroid", path), 0, nv - 3, (0,) * (nv - 2),
    ))
    out.append(_chessboard_homology(*((3, 6, 1) if tiny else (4, 9, 2))))
    out.append(_scan(w, *((3, 5) if tiny else (4, 8))))
    return out


def _homology_threshold(w, rng, tiny):
    out = [_scan(w, 3, 4)]
    if not tiny:
        out.append(_scan(w, 5, 7))
        out.append(_chessboard_homology(5, 6, 3))
    out.append(_chessboard_homology(4, 6, 2))
    return out


_BUILDERS = {
    "packing": _packing,
    "tverberg": _tverberg,
    "homology-vanishing": _homology_vanishing,
    "homology-threshold": _homology_threshold,
}
WORKLOADS = tuple(_BUILDERS)


def build(name, seed, tiny=False):
    """Write the inputs of workload ``name`` for ``seed`` into the current
    directory; return its instances."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](_Writer(), rng, tiny)
