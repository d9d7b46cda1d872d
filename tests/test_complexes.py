"""Complex-engine tests: independence complexes, deleted joins, chessboards."""

import pytest

from generator import small_matroid_family
from oracles import brute_deleted_join
from tvermat import (
    GraphicMatroid,
    InputError,
    ResourceLimitError,
    UniformMatroid,
    as_complex,
    chessboard,
    colourful_matroid,
    deleted_join,
)

K4 = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_as_complex_examples():
    X = as_complex(UniformMatroid(1, 3), 0)
    assert X.f_vector() == (3,)
    X = as_complex(UniformMatroid(2, 3), 1)
    assert X.f_vector() == (3, 3)
    X = as_complex(K4, 2)
    assert X.f_vector() == (6, 15, 16)
    assert X.complete


def test_as_complex_excludes_loops():
    G = GraphicMatroid(3, [(0, 1), (1, 1), (1, 2)])
    X = as_complex(G, 1)
    assert X.f_vector() == (2, 1)
    assert all((1,) != f for f in X.faces(0))


def test_deleted_join_examples():
    two = deleted_join([UniformMatroid(1, 1)] * 2)
    assert two.f_vector() == (2,)  # S^0

    c22 = deleted_join([UniformMatroid(1, 2)] * 2)  # 0-skeleton of an edge
    assert c22.f_vector() == (4, 2)  # two disjoint edges

    # deleted join never contains {pi_1(v), pi_2(v)}
    P = deleted_join([UniformMatroid(2, 3)] * 2)
    n = 3
    for face in P.all_faces():
        elems = [v % n for v in face]
        assert len(set(elems)) == len(elems)


def test_k_fold_deleted_join_chessboards():
    c23 = deleted_join([UniformMatroid(1, 3)] * 2, trunc=1)
    assert c23.f_vector() == (6, 6)
    c34 = deleted_join([UniformMatroid(1, 4)] * 3)
    assert c34.f_vector() == (12, 36, 24)
    assert c34.euler_characteristic() == 0


def test_deleted_join_matches_brute_force():
    fam = [M for _, M in small_matroid_family(explicit_count=10)]
    cases = [[M] * k for M in fam for k in (1, 2, 3) if k * M.n <= 15]
    # distinct matroids per copy, as verify-claim passes them
    by_size = {}
    for M in fam:
        by_size.setdefault(M.n, []).append(M)
    cases += [ms[i:i + k] for ms in by_size.values() for k in (2, 3)
              for i in range(0, len(ms) - k + 1, k) if k * ms[0].n <= 15]
    cases += [[UniformMatroid(1, m)] * k for k in (4, 5) for m in (2, 3)]
    for mats in cases:
        for trunc in range(-1, mats[0].n + 1):
            X = deleted_join(mats, trunc)
            faces, complete = brute_deleted_join(mats, trunc)
            assert X.faces_by_dim == faces, (mats, trunc)
            assert X.complete == complete, (mats, trunc)
    for k, m in ((3, 4), (4, 3), (2, 5)):
        assert chessboard(k, m).faces_by_dim == brute_deleted_join(
            [UniformMatroid(1, m)] * k, min(k, m) - 1)[0]


def test_chessboard_facets():
    c34 = chessboard(3, 4)
    assert len(c34.faces(2)) == 24
    assert all(len(f) == 3 for f in c34.faces(2))
    assert chessboard(2, 2).f_vector() == (4, 2)


def test_down_closure():
    samples = [
        chessboard(3, 4),
        deleted_join([UniformMatroid(2, 4)] * 2, trunc=2),
        as_complex(K4, 2),
    ]
    for X in samples:
        faces = set(X.all_faces())
        for face in faces:
            for j in range(len(face)):
                sub = face[:j] + face[j + 1 :]
                assert not sub or sub in faces, face


def test_deleted_join_disjoint_supports():
    P = deleted_join([UniformMatroid(2, 4)] * 3, trunc=2)
    n = 4
    for face in P.all_faces():
        parts = {}
        for v in face:
            parts.setdefault(v // n, set()).add(v % n)
        supports = list(parts.values())
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


def test_truncation_and_cap():
    # K4's own levels (6, 15, 16 faces) fit the cap; the join's 60 edges do not
    with pytest.raises(ResourceLimitError) as err:
        deleted_join([K4] * 2, trunc=2, cap=20)
    assert err.value.progress == {"dimension": 1, "cap": 20}
    P = deleted_join([K4] * 2, trunc=0)
    assert P.f_vector() == (12,)
    assert not P.complete


def test_chessboard_cap_checked_while_a_level_grows():
    # C(8, 20) has 10,640 edges; the level stops at cap + 1 of them
    with pytest.raises(ResourceLimitError) as err:
        chessboard(8, 20, trunc=3, cap=1000)
    assert "1001 > 1000" in str(err.value)
    assert err.value.progress == {"dimension": 1, "cap": 1000}
    with pytest.raises(ResourceLimitError) as err:
        chessboard(8, 20, cap=100)
    assert err.value.progress == {"dimension": 0, "cap": 100}
    assert chessboard(8, 20, trunc=0, cap=160).f_vector() == (160,)


def test_colourful_complex_top_faces():
    for r in (1, 2, 3):
        for d in (1, 2):
            Y = colourful_matroid(r, d)
            X = as_complex(Y, d)
            assert len(X.faces(d)) == r ** (d + 1)


def test_join_input_errors():
    with pytest.raises(InputError):
        deleted_join([UniformMatroid(1, 2), UniformMatroid(1, 3)])
    with pytest.raises(InputError):
        deleted_join([])
    with pytest.raises(InputError):
        deleted_join([UniformMatroid(3, 6)] * 2, trunc=-2)
