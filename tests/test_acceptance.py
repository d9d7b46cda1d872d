"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each criterion is a function () -> (passed, canonical_report) so the
determinism criterion can re-run the lot and compare reports byte for byte.
Reports carry no timing, so they are reproducible; wall-clock budgets are
asserted separately per criterion.
"""

import time

from generator import partition_almost_equal, small_matroid_family
from oracles import brute_max_disjoint_bases, hulls_intersect_fm
from tvermat import (
    UniformMatroid,
    choose_prime,
    chessboard,
    conjecture_scan,
    dold_inequality_holds,
    find_tverberg,
    homologically_connected,
    as_complex,
    betti_reduced,
    max_disjoint_bases,
    random_point_config,
    verify_claim,
    verify_corollary,
    verify_theorem,
)
from tvermat.errors import ResourceLimitError
from tvermat.formats import render_json

BUDGET_S = {1: 60, 2: 30, 3: 10, 4: 120, 5: 600, 6: 30, 7: 300, 8: 120, 9: 60}
CLAIM_FACE_CAP = 100_000

_cache = {}


def _family():
    if "family" not in _cache:
        _cache["family"] = small_matroid_family(explicit_count=50, explicit_seed=2717)
    return _cache["family"]


def criterion_1():
    """Base-packing oracle equivalence plus certificate validity on the sweep."""
    rows = []
    ok = True
    for name, M in _family():
        b, packing, cert = max_disjoint_bases(M)
        brute = brute_max_disjoint_bases(M)
        good = b == brute
        if good and M.rank() > 0:
            try:
                packing.check()
                cert.check(M)
            except RuntimeError:
                good = False
        ok &= good
        rows.append({"matroid": name, "b": b, "brute": brute, "ok": good})
    return ok, render_json({"criterion": 1, "pass": ok, "matroids": rows})


def criterion_2():
    """C(2,3) is 0-connected and C(3,5) is 1-connected, homologically."""
    r1 = homologically_connected(chessboard(2, 3), 0)
    r2 = homologically_connected(chessboard(3, 5), 1)
    ok = r1.verified and r2.verified
    return ok, render_json({
        "criterion": 2, "pass": ok,
        "c23": r1.to_payload(), "c35": r2.to_payload(),
    })


def criterion_3():
    """Nonvanishing at the chessboard threshold: C(2,2) and C(3,4)."""
    b22 = betti_reduced(chessboard(2, 2), 1).betti
    c34 = chessboard(3, 4)
    b34 = betti_reduced(c34, 2).betti
    f = c34.f_vector()
    euler = f[0] - f[1] + f[2]
    ok = (
        b22[0] == 1
        and b34 == (0, 2, 1)
        and b34[1] > 0
        and f == (12, 36, 24)
        and euler == 0
    )
    return ok, render_json({
        "criterion": 3, "pass": ok,
        "betti_c22": list(b22), "betti_c34": list(b34),
        "f_c34": list(f), "euler_c34": euler,
    })


def criterion_4():
    """Every sweep matroid's complex is (rank-2)-connected, homologically."""
    rows = []
    ok = True
    for name, M in _family():
        c = M.rank() - 2
        X = as_complex(M, max(c + 1, 0))
        rep = homologically_connected(X, c)
        ok &= rep.verified
        rows.append({"matroid": name, "bound": c, "verified": rep.verified})
    return ok, render_json({"criterion": 4, "pass": ok, "matroids": rows})


def criterion_5():
    """verify_claim and verify_corollary hold on the sweep for k in {2,3};
    instances whose truncated deleted joins exceed 1e5 faces are skipped."""
    rows = []
    ok = True
    for name, M in _family():
        for k in (2, 3):
            row = {"matroid": name, "k": k}
            try:
                rep = verify_corollary(M, k, cap=CLAIM_FACE_CAP)
                row["corollary"] = rep.verified
                ok &= rep.verified
            except ResourceLimitError:
                row["corollary"] = "skipped"
            b, packing, _ = max_disjoint_bases(M)
            if b == 0:
                row["claim"] = "skipped"
                rows.append(row)
                continue
            m = -(-b // k)
            groups = partition_almost_equal(b, k)
            unions = [
                frozenset().union(*(packing.bases[j - 1] for j in grp))
                if grp else frozenset()
                for grp in groups
            ]
            try:
                rep = verify_claim([M] * k, unions, m, cap=CLAIM_FACE_CAP)
                row["claim"] = rep.verified
                ok &= rep.verified
            except ResourceLimitError:
                row["claim"] = "skipped"
            rows.append(row)
    return ok, render_json({"criterion": 5, "pass": ok, "instances": rows})


def criterion_6():
    """Conjecture evidence: rank-1 on 2k-2 points fails at degree k-2 and on
    2k-1 points verifies, for k in {2, 3}."""
    rows = []
    ok = True
    for k in (2, 3):
        below = conjecture_scan(UniformMatroid(1, 2 * k - 2), k)
        at = conjecture_scan(UniformMatroid(1, 2 * k - 1), k)
        good = (
            not below.verified
            and below.report.first_nonvanishing == k - 2
            and at.verified
        )
        ok &= good
        rows.append({
            "k": k,
            "points_2k_minus_2_verdict": below.verified,
            "first_nonvanishing": below.report.first_nonvanishing,
            "points_2k_minus_1_verdict": at.verified,
            "ok": good,
        })
    return ok, render_json({"criterion": 6, "pass": ok, "cases": rows})


def criterion_7():
    """Classical Tverberg instances: witness at t = k for 100 seeded random
    configurations per (d, k); every witness re-validates exactly."""
    combos = [(1, 2), (1, 3), (2, 2), (2, 3)]
    rows = []
    ok = True
    for d, k in combos:
        n_points = (k - 1) * (d + 1) + 1
        M = UniformMatroid(d + 1, n_points)
        found = 0
        for i in range(100):
            cfg = random_point_config(n_points, d, seed=(d * 13 + k) * 1000 + i)
            res = find_tverberg(M, cfg, k)
            if res.witness is not None:
                res.witness.validate(M, cfg)  # raises on any inexactness
                found += 1
        ok &= found == 100
        rows.append({"d": d, "k": k, "found": found})
    return ok, render_json({"criterion": 7, "pass": ok, "combos": rows})


def criterion_8():
    """Theorem threshold end to end on U(2,128) and U(2,32): witness at t*
    every time, with consistent prime choice and closing inequality."""
    rows = []
    ok = True
    for n, expect_b, expect_t in ((128, 64, 2), (32, 16, 1)):
        M = UniformMatroid(2, n)
        for i in range(20):
            cfg = random_point_config(n, 1, seed=7000 + 37 * n + i)
            rep = verify_theorem(M, cfg)
            consistent = (
                rep.b == expect_b
                and rep.t_star == expect_t
                and rep.prime == choose_prime(rep.b)
                and rep.inequality_holds
                and dold_inequality_holds(rep.b, 1, rep.prime)
                and rep.witness is not None
                and not rep.falsification_candidate
            )
            ok &= consistent
            rows.append({
                "n": n, "seed_index": i, "b": rep.b, "t_star": rep.t_star,
                "prime": rep.prime, "inequality": rep.inequality_holds,
                "witness": rep.witness is not None,
            })
    return ok, render_json({"criterion": 8, "pass": ok, "instances": rows})


def _random_hull_instance(rng):
    from fractions import Fraction

    d = rng.randint(1, 2)
    total = rng.randint(2, 6)
    groups = rng.randint(2, min(3, total))
    sizes = [1] * groups
    for _ in range(total - groups):
        sizes[rng.randrange(groups)] += 1
    return [
        [
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d))
            for _ in range(s)
        ]
        for s in sizes
    ]


def criterion_9():
    """hulls_intersect agrees with Fourier-Motzkin on 500 seeded instances."""
    import random

    from tvermat import hulls_intersect

    rng = random.Random(424242)
    agree = 0
    hits = 0
    for _ in range(500):
        sets = _random_hull_instance(rng)
        lp = hulls_intersect(sets)
        fm = hulls_intersect_fm(sets)
        if (lp is not None) == fm:
            agree += 1
        hits += lp is not None
    ok = agree == 500
    return ok, render_json({
        "criterion": 9, "pass": ok, "agree": agree, "intersecting": hits,
    })


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}


def _run(n):
    if n not in _cache:
        t0 = time.monotonic()
        passed, report = CRITERIA[n]()
        elapsed = time.monotonic() - t0
        _cache[n] = (passed, report, elapsed)
    return _cache[n]


def _check(n):
    passed, report, elapsed = _run(n)
    status = "PASS" if passed else "FAIL"
    print(f"criterion {n}: {status} ({elapsed:.1f}s)")
    assert passed, f"criterion {n} failed:\n{report}"
    assert elapsed < BUDGET_S[n], f"criterion {n} over budget: {elapsed:.1f}s"


def test_criterion_01_packing_oracle_equivalence():
    _check(1)


def test_criterion_02_chessboard_connectivity():
    _check(2)


def test_criterion_03_chessboard_nonvanishing():
    _check(3)


def test_criterion_04_matroid_connectivity():
    _check(4)


def test_criterion_05_claim_and_corollary():
    _check(5)


def test_criterion_06_conjecture_evidence():
    _check(6)


def test_criterion_07_tverberg_classics():
    _check(7)


def test_criterion_08_theorem_end_to_end():
    _check(8)


def test_criterion_09_lp_oracle_equivalence():
    _check(9)


def test_criterion_10_determinism_rerun():
    mismatches = []
    for n in sorted(CRITERIA):
        base_passed, base_report, _ = _run(n)
        passed, report = CRITERIA[n]()
        if report != base_report or passed != base_passed:
            mismatches.append(n)
    status = "PASS" if not mismatches else "FAIL"
    print(f"criterion 10: {status}")
    assert not mismatches, f"nondeterministic criteria: {mismatches}"
