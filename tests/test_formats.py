"""Round trips and rejection paths for the matroid, point, and face formats."""

from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

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
)
from generator import write_matroid, write_points
from oracles import read_triplets


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
    # a zero denominator, and exponent notation (Fraction would expand the
    # power of ten), are refused at parse time
    for entry in ("1/0", "1e2000000000", "2E3", 1e300):
        with pytest.raises(InputError):
            matroid_from_record({"format-version": 1, "type": "linear",
                                 "field": "Q", "columns": [[entry]]})
    lin = matroid_from_record({"format-version": 1, "type": "linear", "field": "Q",
                               "columns": [["-3/4", "0.25"], [6, "-2.0"]]})
    assert lin.rank() == 1  # (-3/4, 1/4) and (6, -2) are parallel
    # over GF(p), p/q is p times the inverse of q: 1/2 = 2 in GF(3)
    gf3 = {"format-version": 1, "type": "linear", "field": "GF(3)"}
    lin = matroid_from_record({**gf3, "columns": [["1/2"], ["2"]]})
    assert lin.rank([0]) == 1 and lin.rank() == 1
    with pytest.raises(InputError):
        matroid_from_record({**gf3, "columns": [["1/3"]]})


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
    for tok in ("1e2000000000", "-2.5e1", "1E5"):
        with pytest.raises(InputError):
            parse_points(f"d=1\n0: {tok}\n")
    assert parse_points("d=2\n0: -0.125 +7\n").point(0) == (Fraction(-1, 8), Fraction(7))


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
    from tvermat.formats import write_triplets

    d2 = boundary_matrix(chessboard(3, 4), 2)
    path = tmp_path / "d2.triplets"
    write_triplets(path, d2)
    assert read_triplets(path.read_text()) == (d2.nrows, d2.ncols, d2.cols)


def test_render_deterministic():
    rep = {"b": 2, "frac": Fraction(1, 3), "nested": {"z": [1, 2], "a": None}}
    j1 = render_json(rep)
    assert j1 == render_json(dict(reversed(list(rep.items()))))
    assert '"1/3"' in j1
    t = render_text(rep)
    assert "nested.a" in t and t.index("frac") < t.index("nested.z")


# Tokens a hostile or broken file may hold: signs, slashes, exponents,
# decimals and integers far past any sane size.
_TOKENS = st.one_of(
    st.integers(-(10**40), 10**40).map(str),
    st.sampled_from(["1/0", "-3/4", "+2", "2.5", "-0.125", "1e5", "1E-3",
                     "1e2000000000", "9" * 5000, "/", "e", "--1", "1/", "nan",
                     "inf", "0x1f", "1_000"]),
    st.text(alphabet="0123456789/eE.-+ ", max_size=10),
)
_SCALARS = st.one_of(_TOKENS, st.integers(-(2**70), 2**70), st.none(),
                     st.booleans(), st.floats())
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4),
                       max_leaves=12)
_RECORDS = st.fixed_dictionaries(
    {"format-version": st.sampled_from([1, 1, 1, "1", 2]),
     "type": st.sampled_from(["uniform", "graphic", "linear", "partition",
                              "explicit", "moebius"])},
    optional={
        **{key: _VALUES for key in ("rank", "size", "vertices", "edges",
                                    "columns", "blocks", "capacities",
                                    "maximal_independent_sets")},
        "field": st.one_of(_VALUES, st.sampled_from(
            ["Q", "GF(3)", "GF(1e5)", "GF(-7)", "GF(0)", f"GF({2**64 + 13})"])),
    },
)


def _lines(*fixed):
    line = st.lists(_TOKENS, max_size=4).map(" ".join)
    point = st.builds(lambda e, toks: f"{e}: {' '.join(toks)}", _TOKENS,
                      st.lists(_TOKENS, max_size=3))
    return st.lists(st.one_of(line, point, st.sampled_from(fixed)),
                    max_size=6).map("\n".join)


@given(_RECORDS)
def test_fuzz_matroid_records_return_or_refuse(rec):
    try:
        matroid_from_record(rec)
    except InputError:
        pass


@given(_lines("format-version: 1", "d=1", "d=2", "d=0", f"d={10**30}", "0: 1/2"))
def test_fuzz_point_files_return_or_refuse(text):
    try:
        parse_points(text)
    except InputError:
        pass


@given(_lines("format-version: 1", "0", "1", "0 1", "-1"))
def test_fuzz_face_files_return_or_refuse(text):
    try:
        parse_faces(text)
    except InputError:
        pass
