"""Witness search, prime selection, threshold arithmetic, end-to-end theorem."""

import random
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations, islice

import pytest

from generator import small_matroid_family
from oracles import brute_first_witness
from tvermat import (
    GraphicMatroid,
    InputError,
    PointConfig,
    PreconditionError,
    ResourceLimitError,
    UniformMatroid,
    choose_prime,
    colourful_matroid,
    dold_inequality_holds,
    enumerate_faces,
    find_tverberg,
    random_point_config,
    threshold_t,
    verify_theorem,
)
import tvermat.tverberg
from tvermat.lp import hulls_intersect
from tvermat.tverberg import _LazyFaces, _bbox, _tuples

LINE4 = PointConfig(1, {i: (Fraction(i),) for i in range(4)})


def test_enumerate_faces_lex_order():
    M = UniformMatroid(2, 3)
    assert list(enumerate_faces(M, 2)) == [
        (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)
    ]
    for name, M in small_matroid_family(explicit_count=6):
        for max_size in range(1, M.rank() + 2):
            brute = sorted(
                face
                for s in range(1, max_size + 1)
                for face in combinations(range(M.n), s)
                if M.is_independent(face)
            )
            assert list(enumerate_faces(M, max_size)) == brute, (name, max_size)


def test_enumerate_faces_deeper_than_the_call_stack():
    # the first 1,500 faces are one path, far past the recursion limit
    faces = list(islice(enumerate_faces(UniformMatroid(1500, 1500), 1500), 1500))
    assert faces[-1] == tuple(range(1500))


def test_enumerate_faces_memory_is_linear_in_the_depth():
    # one face and one id set, grown and undone in place: the 1,500-deep
    # path, each face dropped once seen, peaks near 0.3 MB traced (a face
    # and an id set kept per depth came to 60 MB)
    tracemalloc.start()
    try:
        for face in islice(enumerate_faces(UniformMatroid(1500, 1500), 1500), 1500):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert face == tuple(range(1500))
    assert peak < 3 * 2**20


def test_tuples_match_brute_force():
    # every strictly increasing disjoint index tuple, kept when its proper
    # prefixes' boxes all meet: a t-tuple is yielded with its box flag, a
    # shorter one whose own boxes miss is a pruned subtree (yielded with None)
    pruned_total = 0
    for seed in range(8):
        rng = random.Random(seed)
        n, d, t = rng.randint(4, 7), rng.randint(1, 2), rng.randint(2, 3)
        M = UniformMatroid(rng.randint(1, d + 1), n)
        cfg = random_point_config(n, d, seed=seed, low=-4, high=4, max_den=2)
        faces = list(enumerate_faces(M, d + 1))
        supports = [frozenset(f) for f in faces]
        boxes = [_bbox([cfg.point(e) for e in f]) for f in faces]

        def meet(idxs):
            lo = [max(boxes[i][0][ell] for i in idxs) for ell in range(d)]
            hi = [min(boxes[i][1][ell] for i in idxs) for ell in range(d)]
            return all(a <= b for a, b in zip(lo, hi))

        brute = []
        for k in range(1, t + 1):
            for idxs in combinations(range(len(faces) - (t - k)), k):
                union = frozenset().union(*(supports[i] for i in idxs))
                if len(union) != sum(len(supports[i]) for i in idxs):
                    continue
                if not all(meet(idxs[:j]) for j in range(1, k)):
                    continue
                if k == t:
                    brute.append((list(idxs), meet(idxs)))
                elif not meet(idxs):
                    brute.append((list(idxs), None))
        brute.sort(key=lambda item: item[0])  # depth-first order is lexicographic
        got = list(_tuples(_LazyFaces(iter(supports), len(supports)), boxes, t))
        assert got == brute, seed
        pruned_total += sum(flag is None for _, flag in got)
    assert pruned_total == 42  # the seeds reach the prune


def test_boxes_built_on_demand(monkeypatch):
    built = []

    def counting_bbox(points):
        built.append(points)
        return _bbox(points)

    monkeypatch.setattr(tvermat.tverberg, "_bbox", counting_bbox)
    res = find_tverberg(UniformMatroid(3, 60), random_point_config(60, 2, seed=3), 2)
    assert res.faces_enumerated == 1891 and res.tuples_examined == 120
    assert len(built) == 121
    w = res.witness
    assert w.faces == [(0,), (1, 4, 7)]
    assert w.point == (Fraction(-8), Fraction(-3, 8))
    assert w.coefficients == [
        [Fraction(1)],
        [Fraction(1307, 15890), Fraction(6281, 12712), Fraction(26927, 63560)],
    ]


def test_rank_one_distinct_points_no_pair():
    M = UniformMatroid(1, 3)
    cfg = PointConfig(1, {0: (Fraction(0),), 1: (Fraction(1),), 2: (Fraction(2),)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = find_tverberg(M, cfg, 2)
    assert res.witness is None
    assert res.tuples_examined == 3  # the three singleton pairs


def test_line_first_witness_is_canonical():
    res = find_tverberg(UniformMatroid(2, 4), LINE4, 2)
    assert res.witness.faces == [(0, 2), (1,)]
    assert res.witness.point == (Fraction(1),)
    assert res.tuples_examined == 10


def test_first_witness_matches_brute_force():
    cases = [(UniformMatroid(2, 4), LINE4, 3)]  # no witness at t = 3
    for d in (1, 2):
        for t in (2, 3):
            for seed in range(3):
                n = random.Random(seed).randint(d + 3, 6)
                cfg = random_point_config(n, d, seed=10 * d + seed, low=-3, high=3,
                                          max_den=2)
                cases.append((UniformMatroid(d + 1, n), cfg, t))
    found = []
    for M, cfg, t in cases:
        res = find_tverberg(M, cfg, t)
        w = res.witness
        got = None if w is None else (w.faces, w.point, w.coefficients)
        assert got == brute_first_witness(M, cfg.coords, cfg.dim + 1, t,
                                          hulls_intersect), (M.n, cfg.dim, t)
        found.append(w is not None)
    assert not found[0] and sum(found) >= len(cases) // 2


def test_validate_refuses_broken_witnesses():
    M = UniformMatroid(2, 4)
    good = find_tverberg(M, LINE4, 2).witness
    assert good.validate(M, LINE4)
    broken = [
        ([(0, 2), (0,)], good.point, good.coefficients),        # not disjoint
        ([(0, 1, 2), (3,)], good.point, [[Fraction(1, 3)] * 3, [1]]),  # dependent
        ([(0, 2), ()], good.point, [good.coefficients[0], []]),  # empty face
        (good.faces, good.point, good.coefficients[:1]),        # a face lacks coefficients
        (good.faces, (Fraction(2),), good.coefficients),        # misses the point
    ]
    for faces, point, lams in broken:
        w = tvermat.tverberg.TverbergWitness(faces, point, lams)
        with pytest.raises(RuntimeError):
            w.validate(M, LINE4)


def test_radon_partitions_found():
    # Radon's theorem: d+2 points always split into two parts with meeting hulls
    for d in (1, 2, 3):
        M = UniformMatroid(d + 1, d + 2)
        for i in range(34):
            cfg = random_point_config(d + 2, d, seed=100 * d + i)
            res = find_tverberg(M, cfg, 2)
            assert res.witness is not None, (d, i)
            res.witness.validate(M, cfg)


def test_witness_monotone_in_t():
    M = UniformMatroid(2, 6)
    cfg = random_point_config(6, 1, seed=5)
    res3 = find_tverberg(M, cfg, 3)
    if res3.witness is not None:
        for smaller in (2, 1):
            assert find_tverberg(M, cfg, smaller).witness is not None


def test_resource_caps():
    M = UniformMatroid(2, 6)
    cfg = PointConfig(1, {i: (Fraction(i),) for i in range(6)})
    with pytest.raises(ResourceLimitError) as err:
        find_tverberg(M, cfg, 3, max_tuples=2)
    assert err.value.progress["tuples_examined"] == 3


def test_missing_coordinates_rejected():
    M = UniformMatroid(2, 4)
    cfg = PointConfig(1, {0: (Fraction(0),), 1: (Fraction(1),)})
    with pytest.raises(InputError):
        find_tverberg(M, cfg, 1)


def test_loops_need_no_coordinates():
    G = GraphicMatroid(3, [(0, 1), (1, 1), (1, 2)])  # edge 1 is a loop
    cfg = PointConfig(1, {0: (Fraction(0),), 2: (Fraction(0),)})
    res = find_tverberg(G, cfg, 2)
    assert res.witness is not None  # both non-loop edges map to the same point


def test_max_affine_t_examples():
    # the largest t with an affine witness: one at t, none at t + 1
    tri = PointConfig(2, {0: (0, 0), 1: (1, 0), 2: (0, 1)})
    line5 = PointConfig(1, {i: (Fraction(i),) for i in range(5)})
    for M, cfg, t in ((UniformMatroid(2, 4), LINE4, 2),
                      (UniformMatroid(3, 3), tri, 1),
                      (UniformMatroid(2, 5), line5, 3)):
        assert find_tverberg(M, cfg, t).witness is not None
        assert find_tverberg(M, cfg, t + 1).witness is None


def test_choose_prime_examples():
    assert choose_prime(64) == 3
    assert choose_prime(16) == 2
    assert choose_prime(4) is None
    with pytest.raises(InputError):
        choose_prime(0)


def test_choose_prime_none_iff_small():
    for b in range(1, 10001):
        p = choose_prime(b)
        assert (p is None) == (b <= 15), b
        if p is not None:
            assert 16 * p * p >= b and 4 * p * p <= b


def test_threshold_t():
    assert threshold_t(1) == 1
    assert threshold_t(16) == 1
    assert threshold_t(17) == 2
    assert threshold_t(64) == 2
    assert threshold_t(65) == 3
    for b in range(1, 500):
        t = threshold_t(b)
        assert 16 * t * t >= b
        assert t == 1 or 16 * (t - 1) * (t - 1) < b


def test_dold_inequality():
    assert dold_inequality_holds(64, 1, 3)
    assert dold_inequality_holds(64, 1, 2)
    assert dold_inequality_holds(16, 1, 2)
    assert Fraction(128, 23) - 2 == Fraction(82, 23)  # the b=64, p=3 left side
    with pytest.raises(InputError):
        dold_inequality_holds(64, 1, 4)


def test_verify_theorem_small():
    M = UniformMatroid(2, 32)
    cfg = random_point_config(32, 1, seed=11)
    rep = verify_theorem(M, cfg)
    assert rep.b == 16 and rep.t_star == 1
    assert rep.prime == 2 and rep.inequality_holds
    assert rep.witness is not None and not rep.falsification_candidate

    Y = colourful_matroid(4, 1)
    cfgY = random_point_config(Y.n, 1, seed=12)
    repY = verify_theorem(Y, cfgY)
    assert repY.b == 4 and repY.t_star == 1
    assert repY.prime is None and repY.inequality_holds is None
    assert repY.witness is not None


def test_verify_theorem_prunes_large_line():
    # without the prune, U(2,320) examined 1,270,356,265 tuples; the cap
    # turns such a walk into a ResourceLimitError instead of a hang
    for n in (320, 512):
        rep = verify_theorem(UniformMatroid(2, n), random_point_config(n, 1, seed=7),
                             max_tuples=1000)
        assert rep.t_star == 4 and not rep.falsification_candidate
        assert rep.witness.faces == [(0,), (1, 2), (3, 5), (4, 7)]
        assert (rep.tuples_examined, rep.subtrees_pruned) == (3, 3)


def test_verify_theorem_rank_mismatch():
    with pytest.raises(PreconditionError):
        verify_theorem(UniformMatroid(3, 6), random_point_config(6, 1, seed=0))
