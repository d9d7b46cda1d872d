"""Round trips and rejection paths for the matroid, point, and face formats."""

from fractions import Fraction
from itertools import chain, combinations

import pytest

from tvermat import (
    ExplicitMatroid,
    GraphicMatroid,
    InputError,
    LinearMatroid,
    PartitionMatroid,
    PointConfig,
    UniformMatroid,
    chessboard,
)
from tvermat.formats import (
    MAX_GROUND_SIZE,
    matroid_from_record,
    parse_faces,
    parse_points,
    read_matroid,
    render_json,
    render_text,
    write_faces,
    write_matroid,
    write_points,
)


def subsets(n):
    return chain.from_iterable(combinations(range(n), k) for k in range(n + 1))


ROUND_TRIP = [
    UniformMatroid(2, 5),
    GraphicMatroid(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 3)]),
    PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2]),
    LinearMatroid([(1, 0), (0, 1), (Fraction(1, 2), Fraction(2, 3))], field=None),
    LinearMatroid([(1, 0), (0, 1), (1, 1)], field=3),
    ExplicitMatroid(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),  # 0 and 3 parallel
]


def test_matroid_round_trip(tmp_path):
    for M in ROUND_TRIP:
        path = tmp_path / "m.matroid"
        write_matroid(path, M)
        back = read_matroid(path)
        assert type(back) is type(M)
        for S in subsets(M.n):
            assert back.is_independent(S) == M.is_independent(S), (M, S)


def test_matroid_record_rejections():
    with pytest.raises(InputError):
        matroid_from_record({"type": "uniform", "rank": 1, "size": 2})  # no version
    with pytest.raises(InputError):
        matroid_from_record({"format-version": 1, "type": "moebius"})
    with pytest.raises(InputError):
        matroid_from_record({"format-version": 1, "type": "uniform", "rank": 3})
    with pytest.raises(InputError):
        matroid_from_record(
            {"format-version": 1, "type": "linear", "field": "R", "columns": []}
        )
    at_cap = {"format-version": 1, "type": "uniform", "rank": 2, "size": MAX_GROUND_SIZE}
    assert matroid_from_record(at_cap).n == MAX_GROUND_SIZE
    for kind, extra in (("uniform", {"rank": 2}),
                        ("explicit", {"maximal_independent_sets": [[0]]})):
        with pytest.raises(InputError):
            matroid_from_record({"format-version": 1, "type": kind,
                                 "size": MAX_GROUND_SIZE + 1, **extra})


def test_points_round_trip(tmp_path):
    cfg = PointConfig(2, {0: (Fraction(1, 2), Fraction(-3)), 2: (Fraction(0), Fraction(7, 5))})
    path = tmp_path / "p.pts"
    write_points(path, cfg)
    text = path.read_text()
    assert text.splitlines()[0] == "format-version: 1"
    back = parse_points(text)
    assert back.dim == 2 and back.coords == cfg.coords


def test_points_parse_variants():
    cfg = parse_points("d=1\n0: 1/2\n1: -3\n")  # version line optional on input
    assert cfg.point(0) == (Fraction(1, 2),)
    with pytest.raises(InputError):
        parse_points("0: 1 2\n")
    with pytest.raises(InputError):
        parse_points("d=1\n0: 1\n0: 2\n")
    with pytest.raises(InputError):
        parse_points("d=1\n0: 1/0\n")


def test_faces_round_trip(tmp_path):
    X = chessboard(2, 3)
    path = tmp_path / "c.faces"
    write_faces(path, X)
    back = parse_faces(path.read_text())
    assert back.faces_by_dim == X.faces_by_dim
    assert back.complete


def test_faces_rejections():
    with pytest.raises(InputError):
        parse_faces("0 1\n")  # missing vertices 0 and 1
    with pytest.raises(InputError):
        parse_faces("1 0\n")  # not sorted
    with pytest.raises(InputError):
        parse_faces("0\n0\n")  # duplicate


def test_triplets_round_trip(tmp_path):
    from tvermat import boundary_matrix
    from tvermat.formats import parse_triplets, write_triplets

    d2 = boundary_matrix(chessboard(3, 4), 2)
    path = tmp_path / "d2.triplets"
    write_triplets(path, d2)
    back = parse_triplets(path.read_text())
    assert back.nrows == d2.nrows and back.ncols == d2.ncols
    assert back.cols == d2.cols
    with pytest.raises(InputError):
        parse_triplets("rows 1 cols 1\n2 0 1\n")


def test_render_deterministic():
    rep = {"b": 2, "frac": Fraction(1, 3), "nested": {"z": [1, 2], "a": None}}
    j1 = render_json(rep)
    assert j1 == render_json(dict(reversed(list(rep.items()))))
    assert '"1/3"' in j1
    t = render_text(rep)
    assert "nested.a" in t and t.index("frac") < t.index("nested.z")
