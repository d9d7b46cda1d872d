"""Matroid oracle tests: built-in families, axioms, validation."""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from tvermat import (
    ExplicitMatroid,
    GraphicMatroid,
    InputError,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    colourful_matroid,
    validate_matroid,
)

from generator import explicit_from, small_matroid_family
from oracles import column_rank, graph_rank

TRIANGLE = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
K4 = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def subsets(n):
    return chain.from_iterable(combinations(range(n), k) for k in range(n + 1))


def small_instances():
    return [
        UniformMatroid(2, 4),
        UniformMatroid(1, 5),
        UniformMatroid(3, 6),
        TRIANGLE,
        GraphicMatroid(3, [(0, 1), (1, 2), (0, 2), (1, 1)]),  # with a loop
        PartitionMatroid([[0, 1], [2, 3]], [1, 1]),
        PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1]),
        LinearMatroid([(1, 0), (0, 1), (1, 1)], field=2),
        LinearMatroid([(1, 0), (0, 1), (1, 1), (0, 0)], field=None),
        ExplicitMatroid(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]),
    ]


def test_uniform_independence():
    M = UniformMatroid(2, 4)
    assert M.is_independent((0, 1))
    assert not M.is_independent((0, 1, 2))
    assert M.rank() == 2
    assert M.rank((3,)) == 1


def test_graphic_cycle_dependent():
    assert not TRIANGLE.is_independent((0, 1, 2))
    assert TRIANGLE.is_independent((0, 1))
    assert K4.rank() == 3  # spanning tree size


def test_linear_gf2_dependence():
    # columns (1,0), (0,1), (1,1) over GF(2): the three sum to zero
    M = LinearMatroid([(1, 0), (0, 1), (1, 1)], field=2)
    assert not M.is_independent((0, 1, 2))
    assert M.is_independent((0, 1))
    assert M.is_independent((0, 2))
    # over Q the same columns are pairwise independent but (0,1,2) is rank 2
    MQ = LinearMatroid([(1, 0), (0, 1), (1, 1)])
    assert MQ.rank((0, 1, 2)) == 2


def test_linear_rational_columns():
    from fractions import Fraction

    M = LinearMatroid([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (1, 1)])
    assert M.is_independent((0, 1))
    assert M.rank() == 2
    assert not M.is_independent((0, 1, 2))


def test_partition_rank():
    M = PartitionMatroid([[0, 1], [2, 3]], [1, 1])
    assert M.rank((0, 1)) == 1
    assert M.rank() == 2
    assert M.is_independent((0, 2))
    assert not M.is_independent((0, 1))


def test_ground_rank_builds_no_ground_set():
    # the closed forms agree with the rank of the ground set as a set
    for M in small_instances():
        assert M.rank() == M.rank(range(M.n)), M
    M = UniformMatroid(2, 1 << 20)
    tracemalloc.start()
    try:
        assert M.rank() == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_loops():
    G = GraphicMatroid(3, [(0, 1), (1, 1)])
    assert G.loops() == [1]
    L = LinearMatroid([(1, 0), (0, 0)], field=None)
    assert L.loops() == [1]
    P = PartitionMatroid([[0], [1]], [1, 0])
    assert P.loops() == [1]
    assert UniformMatroid(0, 3).loops() == [0, 1, 2] and UniformMatroid(1, 3).loops() == []


def test_validate_matroid():
    ok, _ = validate_matroid(4, list(combinations(range(4), 2)))
    assert ok
    ok, witness = validate_matroid(3, [(0, 1), (2,)])
    assert not ok
    assert witness == (frozenset({2}), frozenset({0, 1}))
    ok, _ = validate_matroid(3, [()])
    assert ok  # rank-0 matroid, all loops


def _random_independent(M, rng):
    """A random independent set of M, grown greedily from a shuffled order."""
    order = list(range(M.n))
    rng.shuffle(order)
    part = set()
    for e in order[:rng.randint(0, M.n)]:
        if M.is_independent(part | {e}):
            part.add(e)
    return part


def test_graphic_fundamental_circuit_matches_generic():
    rng = random.Random(41)
    for _ in range(60):
        nv = rng.randint(1, 7)
        edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(1, 14))]
        edges += [edges[rng.randrange(len(edges))]]  # at least one parallel pair
        M = GraphicMatroid(nv, edges)
        for _ in range(8):
            part = _random_independent(M, rng)
            for x in range(M.n):
                if x not in part:
                    assert M.fundamental_circuit(part, x) == Matroid.fundamental_circuit(
                        M, part, x
                    ), (edges, part, x)
    # a self-loop closes a circuit alone; a parallel edge closes one with its twin
    G = GraphicMatroid(3, [(0, 1), (1, 1), (1, 0), (1, 2)])
    assert G.fundamental_circuit({0, 3}, 1) == []
    assert G.fundamental_circuit({0, 3}, 2) == [0]
    assert G.fundamental_circuit({3}, 2) is None


def test_uniform_fundamental_circuit_matches_generic():
    rng = random.Random(43)
    for n in range(0, 7):
        for r in range(0, n + 1):
            M = UniformMatroid(r, n)
            for _ in range(6):
                part = _random_independent(M, rng)
                for x in range(n):
                    if x not in part:
                        assert M.fundamental_circuit(part, x) == Matroid.fundamental_circuit(
                            M, part, x
                        ), (r, n, part, x)


def test_extensions_match_the_independence_loop():
    # the graphic hook labels the forest's trees once and the uniform one is
    # a range; every other family keeps the default loop over _indep
    for name, M in small_matroid_family():
        for face in subsets(M.n):
            base = frozenset(face)
            if not M._indep(base):
                continue
            want = [e for e in range(face[-1] + 1 if face else 0, M.n)
                    if M._indep(base | {e})]
            assert list(M._extensions(face)) == want, (name, face)


def test_fundamental_circuits_match_the_independence_loop():
    # graphic, uniform and partition matroids answer in closed form; the
    # generic loop of independence calls is the reference
    for name, M in small_matroid_family():
        for part in subsets(M.n):
            base = frozenset(part)
            if not M._indep(base):
                continue
            for x in range(M.n):
                if x not in base:
                    want = Matroid.fundamental_circuit(M, base, x)
                    assert M.fundamental_circuit(set(base), x) == want, (name, part, x)


def test_explicit_matches_builtins():
    for M in small_instances():
        if M.n > 6:
            continue
        E = explicit_from(M)
        for S in subsets(M.n):
            assert E.is_independent(S) == M.is_independent(S), (M, S)


def test_graphic_and_linear_rank_match_references():
    rng = random.Random(47)
    for _ in range(40):
        nv = rng.randint(1, 5)
        edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 7))]
        M = GraphicMatroid(nv, edges)
        for A in subsets(M.n):
            assert M.rank(A) == graph_rank(nv, [edges[e] for e in A]), (edges, A)
    for field in (None, 2, 3, 7):
        for _ in range(20):
            height = rng.randint(1, 3)
            dens = [d for d in (1, 2, 3, 5) if field is None or d % field]
            cols = [tuple(Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(height))
                    for _ in range(rng.randint(0, 7))]
            M = LinearMatroid(cols, field=field)
            for A in subsets(M.n):
                assert M.rank(A) == column_rank([cols[e] for e in A], field), (field, cols, A)


def test_rank_axioms_exhaustive():
    for M in small_instances():
        if M.n > 6:
            continue
        sets = list(subsets(M.n))
        ranks = {S: M.rank(S) for S in sets}
        for S in sets:
            assert 0 <= ranks[S] <= len(S)
            assert M.is_independent(S) == (ranks[S] == len(S))
        for A in sets:
            for B in sets:
                un = tuple(sorted(set(A) | set(B)))
                iv = tuple(sorted(set(A) & set(B)))
                assert ranks[un] + ranks[iv] <= ranks[A] + ranks[B]
                if set(A) <= set(B):
                    assert ranks[A] <= ranks[B]


@given(st.integers(0, len(small_instances()) - 1), st.data())
def test_hereditarity(idx, data):
    M = small_instances()[idx]
    S = data.draw(st.sets(st.integers(0, M.n - 1), max_size=M.n))
    # greedily extract an independent subset, then walk down a random chain
    picked = set()
    for e in sorted(S):
        picked.add(e)
        if not M.is_independent(picked):
            picked.discard(e)
    sub = sorted(picked)
    while sub:
        assert M.is_independent(sub)
        sub.pop(data.draw(st.integers(0, len(sub) - 1)))
    assert M.is_independent(())


def test_colourful_matroid():
    Y = colourful_matroid(2, 1)
    assert Y.n == 4 and Y.rank() == 2
    assert Y.is_independent((0, 2))
    assert not Y.is_independent((0, 1))
    with pytest.raises(InputError):
        colourful_matroid(0, 1)


def test_input_errors():
    M = UniformMatroid(2, 4)
    with pytest.raises(InputError):
        M.is_independent((0, 9))
    with pytest.raises(InputError):
        M.rank((-1,))
    with pytest.raises(InputError):
        UniformMatroid(5, 3)
    with pytest.raises(InputError):
        PartitionMatroid([[0, 1], [1, 2]], [1, 1])
    with pytest.raises(InputError):
        LinearMatroid([(1, 0)], field=4)


def test_linear_field_primality_is_fast():
    start = time.perf_counter()
    M = LinearMatroid([(1, 0), (0, 1), (1, 1)], field=(1 << 31) - 1)
    assert time.perf_counter() - start < 1.0
    assert M.rank() == 2
    with pytest.raises(InputError):
        LinearMatroid([(1, 0)], field=9)


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    from tvermat.matroids import _is_prime

    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_is_prime_is_exact_and_bounded():
    from tvermat.matroids import _is_prime

    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)
    start = time.perf_counter()
    assert _is_prime(1_000_000_000_000_000_003)
    assert _is_prime((1 << 64) - 59)  # the largest prime below 2**64
    assert not _is_prime((1 << 64) - 1)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(InputError):
        _is_prime(1 << 64)
    with pytest.raises(InputError):
        LinearMatroid([(1, 0)], field=(1 << 64) + 13)
