"""Complex-engine tests: local operations, joins, deleted joins, chessboards."""

import pytest

from tvermat import (
    GraphicMatroid,
    InputError,
    PreconditionError,
    ResourceLimitError,
    UniformMatroid,
    as_complex,
    betti_reduced,
    chessboard,
    colourful_matroid,
    cyclic_shift,
    deleted_join,
    from_facets,
    full_simplex,
    induced,
    is_action_free,
    join,
    link,
    power_deleted_join,
    skeleton,
    star,
)
from tvermat.complexes import _no_invariant_faces

K4 = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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


def test_star_link_induced():
    tri_boundary = from_facets(3, [(0, 1), (1, 2), (0, 2)])
    lk = link(tri_boundary, 0)
    assert lk.f_vector() == (2,)
    st = star(tri_boundary, 0)
    assert st.has_face((0, 1)) and st.has_face((2,)) and not st.has_face((1, 2))
    # stars are cones, hence acyclic
    assert betti_reduced(st, 1).betti == (0, 0)
    void = induced(tri_boundary, ())
    assert void.is_empty()
    with pytest.raises(PreconditionError):
        star(tri_boundary, 9)


def test_skeleton():
    d3 = full_simplex(4)
    sk = skeleton(d3, 1)
    assert sk.f_vector() == (4, 6)
    assert skeleton(d3, d3.dimension).f_vector() == d3.f_vector()
    assert skeleton(full_simplex(5), 2).f_vector() == (5, 10, 10)


def test_join_basics():
    s0 = from_facets(2, [(0,), (1,)])  # two points
    circle = join([s0, s0])
    assert circle.f_vector() == (4, 4)
    assert betti_reduced(circle, 1).betti == (0, 1)

    pt = from_facets(1, [(0,)])
    x = from_facets(1, [(0,)])
    cone = join([pt, x])
    assert betti_reduced(cone, 1).betti == (0, 0)

    a = from_facets(3, [(0, 1), (2,)])
    b = from_facets(3, [(0,), (1, 2)])
    j = join([a, b])
    assert len(j.faces(0)) == len(a.faces(0)) + len(b.faces(0))
    fa = [1, *a.f_vector()]
    fb = [1, *b.f_vector()]
    assert [1, *j.f_vector()] == convolve(fa, fb)


def test_join_fvector_convolution_three_factors():
    a = from_facets(3, [(0, 1), (1, 2)])
    b = from_facets(3, [(0,), (1,), (2,)])
    c = from_facets(3, [(0, 1, 2)])
    j = join([a, b, c])
    expect = convolve(convolve([1, *a.f_vector()], [1, *b.f_vector()]),
                      [1, *c.f_vector()])
    assert [1, *j.f_vector()] == expect


def test_deleted_join_examples():
    pt = from_facets(1, [(0,)])
    two = power_deleted_join(pt, 2)
    assert two.f_vector() == (2,)  # S^0

    edge_vertices = as_complex(UniformMatroid(1, 2), 0)  # 0-skeleton of an edge
    c22 = power_deleted_join(edge_vertices, 2)
    assert c22.f_vector() == (4, 2)  # two disjoint edges

    # deleted join never contains {pi_1(v), pi_2(v)}
    X = as_complex(UniformMatroid(2, 3), 1)
    P = power_deleted_join(X, 2)
    n = 3
    for face in P.all_faces():
        elems = [v % n for v in face]
        assert len(set(elems)) == len(elems)


def test_power_deleted_join_chessboards():
    three = as_complex(UniformMatroid(1, 3), 0)
    c23 = power_deleted_join(three, 2, trunc=1)
    assert c23.f_vector() == (6, 6)
    c34 = power_deleted_join(as_complex(UniformMatroid(1, 4), 0), 3)
    assert c34.f_vector() == (12, 36, 24)
    assert c34.euler_characteristic() == 0


def test_chessboard_matches_deleted_join():
    for k in range(1, 4):
        for m in range(1, 6):
            direct = chessboard(k, m)
            pdj = power_deleted_join(as_complex(UniformMatroid(1, m), 0), k)
            assert direct.faces_by_dim == pdj.faces_by_dim, (k, m)


def test_chessboard_facets():
    c34 = chessboard(3, 4)
    assert len(c34.faces(2)) == 24
    assert all(len(f) == 3 for f in c34.faces(2))
    assert chessboard(2, 2).f_vector() == (4, 2)


def test_down_closure():
    samples = [
        chessboard(3, 4),
        power_deleted_join(as_complex(UniformMatroid(2, 4), 1), 2, trunc=2),
        as_complex(K4, 2),
        join([from_facets(2, [(0, 1)]), from_facets(2, [(0,), (1,)])]),
    ]
    for X in samples:
        for d, faces in X.faces_by_dim.items():
            if d == 0:
                continue
            for face in faces:
                for j in range(len(face)):
                    assert X.has_face(face[:j] + face[j + 1 :]), (d, face)


def test_deleted_join_disjoint_supports():
    X = as_complex(UniformMatroid(2, 4), 1)
    P = power_deleted_join(X, 3, trunc=2)
    k, n = P.labels
    for face in P.all_faces():
        parts = {}
        for v in face:
            parts.setdefault(v // n, set()).add(v % n)
        supports = list(parts.values())
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


def test_cyclic_shift():
    c24 = chessboard(2, 4)
    k, n = c24.labels
    for face in c24.all_faces():
        assert cyclic_shift(cyclic_shift(face, k, n), k, n) == face


def test_action_freeness():
    three = as_complex(UniformMatroid(1, 3), 0)
    assert is_action_free(three, 3, 2)
    factors = [
        as_complex(UniformMatroid(2, 4), 1),
        as_complex(UniformMatroid(1, 4), 0),
        as_complex(K4, 2),
        as_complex(colourful_matroid(2, 1), 1),
    ]
    for k in (2, 3, 5):
        for X in factors:
            assert is_action_free(X, k, 2)
    # the full join is not free: {pi_1(v), pi_2(v)} is invariant
    pt = from_facets(1, [(0,)])
    full = join([pt, pt])
    assert not _no_invariant_faces(full, 2)


def test_truncation_and_cap():
    X = as_complex(K4, 2)
    with pytest.raises(ResourceLimitError):
        power_deleted_join(X, 2, trunc=2, cap=10)
    P = power_deleted_join(X, 2, trunc=0)
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
        join([a, b])
    with pytest.raises(InputError):
        deleted_join([])
    trunc_factor = as_complex(UniformMatroid(3, 6), 1)  # incomplete
    with pytest.raises(PreconditionError):
        deleted_join([trunc_factor, trunc_factor], trunc=4)
