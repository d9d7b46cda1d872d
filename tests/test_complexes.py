"""Complex-engine tests: independence complexes, deleted joins, chessboards."""

import pytest

from tvermat import (
    GraphicMatroid,
    InputError,
    PreconditionError,
    ResourceLimitError,
    UniformMatroid,
    as_complex,
    chessboard,
    colourful_matroid,
    deleted_join,
    from_facets,
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
    pt = from_facets(1, [(0,)])
    two = deleted_join([pt] * 2)
    assert two.f_vector() == (2,)  # S^0

    edge_vertices = as_complex(UniformMatroid(1, 2), 0)  # 0-skeleton of an edge
    c22 = deleted_join([edge_vertices] * 2)
    assert c22.f_vector() == (4, 2)  # two disjoint edges

    # deleted join never contains {pi_1(v), pi_2(v)}
    X = as_complex(UniformMatroid(2, 3), 1)
    P = deleted_join([X] * 2)
    n = 3
    for face in P.all_faces():
        elems = [v % n for v in face]
        assert len(set(elems)) == len(elems)


def test_k_fold_deleted_join_chessboards():
    three = as_complex(UniformMatroid(1, 3), 0)
    c23 = deleted_join([three] * 2, trunc=1)
    assert c23.f_vector() == (6, 6)
    c34 = deleted_join([as_complex(UniformMatroid(1, 4), 0)] * 3)
    assert c34.f_vector() == (12, 36, 24)
    assert c34.euler_characteristic() == 0


def test_chessboard_matches_deleted_join():
    for k in range(1, 4):
        for m in range(1, 6):
            direct = chessboard(k, m)
            pdj = deleted_join([as_complex(UniformMatroid(1, m), 0)] * k)
            assert direct.faces_by_dim == pdj.faces_by_dim, (k, m)


def test_chessboard_facets():
    c34 = chessboard(3, 4)
    assert len(c34.faces(2)) == 24
    assert all(len(f) == 3 for f in c34.faces(2))
    assert chessboard(2, 2).f_vector() == (4, 2)


def test_down_closure():
    samples = [
        chessboard(3, 4),
        deleted_join([as_complex(UniformMatroid(2, 4), 1)] * 2, trunc=2),
        as_complex(K4, 2),
    ]
    for X in samples:
        faces = set(X.all_faces())
        for face in faces:
            for j in range(len(face)):
                sub = face[:j] + face[j + 1 :]
                assert not sub or sub in faces, face


def test_deleted_join_disjoint_supports():
    X = as_complex(UniformMatroid(2, 4), 1)
    P = deleted_join([X] * 3, trunc=2)
    k, n = P.labels
    for face in P.all_faces():
        parts = {}
        for v in face:
            parts.setdefault(v // n, set()).add(v % n)
        supports = list(parts.values())
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


def test_truncation_and_cap():
    X = as_complex(K4, 2)
    with pytest.raises(ResourceLimitError):
        deleted_join([X] * 2, trunc=2, cap=10)
    P = deleted_join([X] * 2, trunc=0)
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
    a = from_facets(2, [(0,)])
    b = from_facets(3, [(0,)])
    with pytest.raises(InputError):
        deleted_join([a, b])
    with pytest.raises(InputError):
        deleted_join([])
    trunc_factor = as_complex(UniformMatroid(3, 6), 1)  # incomplete
    with pytest.raises(PreconditionError):
        deleted_join([trunc_factor, trunc_factor], trunc=4)
