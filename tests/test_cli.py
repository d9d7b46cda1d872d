"""CLI contract: exit codes, report schema, determinism, golden output."""

import contextlib
import gc
import hashlib
import io
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from tvermat import GraphicMatroid, UniformMatroid, colourful_matroid
from tvermat.cli import EXIT_CODES, build_parser, main
from tvermat.tverberg import PointConfig

from generator import write_matroid, write_points

from fractions import Fraction


@pytest.fixture
def files(tmp_path):
    k4 = tmp_path / "k4.matroid"
    write_matroid(k4, GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    u24 = tmp_path / "u2_4.matroid"
    write_matroid(u24, UniformMatroid(2, 4))
    u13 = tmp_path / "u1_3.matroid"
    write_matroid(u13, UniformMatroid(1, 3))
    y21 = tmp_path / "y21.matroid"
    write_matroid(y21, colourful_matroid(2, 1))
    pts = tmp_path / "line4.pts"
    write_points(pts, PointConfig(1, {i: (Fraction(i),) for i in range(4)}))
    return {p.name: str(p) for p in (k4, u24, u13, y21, pts)}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_golden_prime(capsys):
    code, out = run(capsys, "prime", "--b", "64")
    assert code == 0
    assert out == (
        "{\n"
        '  "command": "prime",\n'
        '  "format-version": 1,\n'
        '  "inputs": {},\n'
        '  "outcome": "verified",\n'
        '  "parameters": {\n'
        '    "b": 64,\n'
        '    "seed": 0\n'
        "  },\n"
        '  "payload": {\n'
        '    "b": 64,\n'
        '    "prime": 3\n'
        "  },\n"
        '  "wall-time-s": null\n'
        "}\n"
    )


def test_bases_exit_zero(files, capsys):
    code, out = run(capsys, "bases", "--matroid", files["k4.matroid"])
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "verified"
    assert rep["payload"]["b"] == 2
    assert rep["payload"]["certificate"]["witness_set"] == []


def test_homology_chessboard(capsys):
    code, out = run(capsys, "homology", "--chessboard", "3,4", "--up-to", "2")
    assert code == 0
    assert json.loads(out)["payload"]["betti"] == [0, 2, 1]


def test_homology_through_the_top_coboundary(capsys):
    # the top map of C(6,8) through dimension 5 has 20,160 columns, which
    # the Morse reduction cuts to 429 critical faces
    for board, up_to, betti in (("6,8", "4", [0, 0, 0, 0, 1316]),
                                ("5,8", "3", [0, 0, 0, 14])):
        code, out = run(capsys, "homology", "--chessboard", board, "--up-to", up_to)
        assert code == 0
        assert json.loads(out)["payload"]["betti"] == betti


def test_huge_up_to_ends_in_a_report(capsys):
    # above the complex's dimension every Betti number is 0 and is not
    # computed; an --up-to above 2**12 is an input error, so the zeros
    # listed stay a few kilobytes
    for up_to in (1_000_000, 100_000_000):
        t0 = time.monotonic()
        code, out = run(capsys, "homology", "--chessboard", "3,4", "--up-to", str(up_to))
        assert time.monotonic() - t0 < 2.0
        rep = json.loads(out)
        assert code == 2 and rep["outcome"] == "input-error"
        assert rep["payload"] == {"error": f"--up-to {up_to} exceeds the cap 4096"}
    for up_to in (99, 4096):
        code, out = run(capsys, "homology", "--chessboard", "3,4", "--up-to", str(up_to))
        assert code == 0
        assert json.loads(out)["payload"] == {
            "betti": [0, 2, 1] + [0] * (up_to - 2), "up_to": up_to,
            "f_vector": [1, 12, 36, 24]}


def test_many_copies_meet_the_face_cap_first(tmp_path, capsys):
    # 2,000,000 copies of U(2,5) have 10**7 vertices: the cap fires before
    # any per-copy state is built
    path = tmp_path / "u2_5.matroid"
    write_matroid(path, UniformMatroid(2, 5))
    t0 = time.monotonic()
    code, out = run(capsys, "conjecture-scan", "--matroid", str(path), "--k", "2000000")
    assert time.monotonic() - t0 < 5.0
    rep = json.loads(out)
    assert code == 3 and rep["outcome"] == "resource-limit"
    assert rep["payload"] == {"error": "face cap exceeded at dimension 0: 5000001 > 5000000",
                              "progress": {"cap": 5000000, "dimension": 0}}


@pytest.fixture(scope="module")
def u3_9(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile") / "u3_9.matroid"
    write_matroid(path, UniformMatroid(3, 9))
    return str(path)


@pytest.fixture(scope="module")
def u1_2_20(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile") / "u1_2_20.matroid"
    write_matroid(path, UniformMatroid(1, 2**20))
    return str(path)


@pytest.fixture(scope="module")
def u0_3(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile") / "u0_3.matroid"
    write_matroid(path, UniformMatroid(0, 3))
    return str(path)


def _cap_exceeded(dim):
    return {"error": f"face cap exceeded at dimension {dim}: 5000001 > 5000000",
            "progress": {"cap": 5000000, "dimension": dim}}


CAP_EXCEEDED = _cap_exceeded(0)


def _tverberg_exhausted(t):
    return {"exhausted": True, "faces_enumerated": 129, "subtrees_pruned": 0, "t": t,
            "tuples_examined": 0, "witness": None}


# (id, argv, exit code, payload or None[, seconds]): "U3_9", "U0_3" and
# "U1_2_20" stand for the U(3,9), U(0,3) and U(1, 2**20) files; a row ends
# within 2 s unless it names its own bound.  A huge --k is never built into k
# parts or k copies: pack certifies with the loops, none here (k >= n = 9),
# and lists at most 2**12 empty bases of a rank-0 matroid; the scans meet the
# face cap at f_0 = 9k; a cover builds at most |A| parts, a
# chessboard meets the cap at f_0 = k*m, and a search reads at most cap + 1
# faces whatever t is.  conjecture-scan meets the cap at f_1 before it packs
# b(M), 2**20 one-element bases of U(1, 2**20), which its report never shows
HOSTILE = [
    *((f"{k}-{command}", [command, "--matroid", "U3_9", "--k", str(k)],
       0 if command == "pack" else 3,
       {"packed": False, "certificate": {"k": k, "witness_set": []}}
       if command == "pack" else CAP_EXCEEDED)
      for k in (2**20 + 1, 10**8, 10**9, 10**30)
      for command in ("pack", "verify-corollary", "conjecture-scan")),
    ("verify-claim-m", ["verify-claim", "--matroid", "U3_9", "--sets", "0,1;2,3",
                        "--m", str(10**9)], 0, None),
    *((f"tverberg-t-{t}", ["tverberg", "--matroid", "U3_9", "--random-points", "9",
                           "--dim", "2", "--t", str(t)], 0, _tverberg_exhausted(t))
      for t in (10**8,)),
    ("chessboard-m", ["chessboard", "--k", "3", "--m", str(10**30)], 3, CAP_EXCEEDED),
    ("chessboard-k", ["chessboard", "--k", str(10**9), "--m", "2"], 3, CAP_EXCEEDED),
    ("homology-chessboard", ["homology", "--chessboard", "1000000,1000000", "--up-to", "1"],
     3, CAP_EXCEEDED),
    # each chessboard level is counted before the k copies are listed
    ("chessboard-k-max-dim-1", ["chessboard", "--k", str(10**9), "--m", "2", "--max-dim", "-1"],
     0, {"complete": False, "f_vector": [1], "num_faces": 0}),
    ("chessboard-k-max-dim-5", ["chessboard", "--k", str(10**9), "--m", "2", "--max-dim", "-5"],
     2, {"error": "max_dim must be >= -1, got -5"}),
    ("chessboard-m-2-20", ["chessboard", "--k", "3", "--m", str(2**20)], 3, _cap_exceeded(1)),
    ("homology-chessboard-2-20", ["homology", "--chessboard", f"2,{2**20}", "--up-to", "0"],
     3, _cap_exceeded(1)),
    # the Betti numbers above the dimension are listed as zeros, at most 2**12 of them
    ("homology-up-to-2-12", ["homology", "--chessboard", "3,4", "--up-to", str(2**12)], 0,
     None),
    ("homology-up-to-10-6", ["homology", "--chessboard", "3,4", "--up-to", str(10**6)], 2,
     {"error": "--up-to 1000000 exceeds the cap 4096"}),
    ("complex-max-dim", ["complex", "--matroid", "U3_9", "--max-dim", str(10**30)], 0, None),
    ("chessboard-max-dim", ["chessboard", "--k", "3", "--m", "4", "--max-dim", str(10**30)],
     0, None),
    ("inequality-d", ["inequality", "--b", "64", "--d", str(10**20), "--p", "3"], 0, None),
    ("prime-b", ["prime", "--b", str(10**30)], 0, None),
    ("conjecture-scan-u1-2-20", ["conjecture-scan", "--matroid", "U1_2_20", "--k", "3"], 3,
     _cap_exceeded(1), 1.0),
    ("pack-rank-0-k-2-12", ["pack", "--matroid", "U0_3", "--k", str(2**12)], 0,
     {"packed": True, "bases": [[]] * 2**12}),
    *((f"pack-rank-0-k-{k}", ["pack", "--matroid", "U0_3", "--k", str(k)], 2,
       {"error": f"--k {k} exceeds the cap 4096 on a rank-0 matroid"}, 1.0)
      for k in (10**6, 2**20 + 1)),
]


BIG = (2**20, 2**20 + 1, 10**9, 10**30)


def _input_errors(template):
    return {v: (2, {"error": template.format(v)}) for v in (0, -1)}


def _big(outcome):
    return {v: outcome(v) for v in BIG}


_RANDOM_9 = ["--matroid", "U3_9", "--random-points", "9", "--dim", "2"]
_U3_9_COMPLEX = {"complete": True, "f_vector": [1, 9, 36, 84], "num_faces": 129}
# (id, argv without the value, {value: (exit code, payload)}): every integer
# flag at 0, -1 and each value in BIG; a None payload is a witness search's.
# f_0 = 4k or 3m passes the face cap from 10**9 on, f_1 before
EDGES = [
    ("pack-k", ["pack", "--matroid", "U3_9", "--k"], _input_errors("k must be positive, got {}")
     | _big(lambda k: (0, {"packed": False, "certificate": {"k": k, "witness_set": []}}))),
    ("pack-m", ["pack", "--matroid", "U3_9", "--subset", "0,1", "--m"],
     _input_errors("m must be positive, got {}")
     | _big(lambda m: (0, {"covered": True, "parts": [[0, 1]]}))),
    ("verify-claim-m", ["verify-claim", "--matroid", "U3_9", "--sets", "0,1;2,3", "--m"],
     _input_errors("m must be positive, got {}")
     | _big(lambda m: (0, {"betti_checked": [], "bound": -1, "first_nonvanishing": None,
                           "context": {"k": 2, "m": m, "total": 4}, "f_vector": [1, 18],
                           "num_faces": 18, "vanishing": [], "verified": True}))),
    ("verify-corollary-k", ["verify-corollary", "--matroid", "U3_9", "--k"],
     _input_errors("k must be positive, got {}") | _big(lambda k: (3, CAP_EXCEEDED))),
    ("conjecture-scan-k", ["conjecture-scan", "--matroid", "U3_9", "--k"],
     _input_errors("k must be positive, got {}") | _big(lambda k: (3, CAP_EXCEEDED))),
    ("tverberg-t", ["tverberg", *_RANDOM_9, "--t"], _input_errors("t must be positive, got {}")
     | _big(lambda t: (0, _tverberg_exhausted(t)))),
    *((f"{command}-dim", [command, "--matroid", "U3_9", "--random-points", "9", *t, "--dim"],
       _input_errors("dimension must be >= 1, got {}")
       | _big(lambda d: (2, {"error": f"9 random points in dimension {d} exceed the cap of "
                                      "1048576 coordinates"})))
      for command, t in (("tverberg", ["--t", "2"]), ("verify-theorem", []))),
    *((f"{command}-random-points", [command, "--matroid", "U3_9", "--dim", "2", *t,
                                    "--random-points"],
       {0: (2, {"error": "configuration misses coordinates for some non-loop element"}),
        -1: (2, {"error": "--random-points must be >= 0, got -1"})} | _big(lambda n: (0, None)))
      for command, t in (("tverberg", ["--t", "2"]), ("verify-theorem", []))),
    ("complex-max-dim", ["complex", "--matroid", "U3_9", "--max-dim"],
     {0: (0, {"complete": False, "f_vector": [1, 9], "num_faces": 9}),
      -1: (0, {"complete": False, "f_vector": [1], "num_faces": 0})}
     | _big(lambda d: (0, _U3_9_COMPLEX))),
    ("chessboard-k", ["chessboard", "--m", "4", "--k"],
     _input_errors("need k >= 1 and m >= 1, got k={}, m=4")
     | _big(lambda k: (3, _cap_exceeded(int(k < 10**9))))),
    ("chessboard-m", ["chessboard", "--k", "3", "--m"],
     _input_errors("need k >= 1 and m >= 1, got k=3, m={}")
     | _big(lambda m: (3, _cap_exceeded(int(m < 10**9))))),
    ("homology-up-to", ["homology", "--chessboard", "3,4", "--up-to"],
     {0: (0, {"betti": [0], "f_vector": [1, 12, 36], "up_to": 0}),
      -1: (2, {"error": "up_to must be >= 0, got -1"})}
     | _big(lambda u: (2, {"error": f"--up-to {u} exceeds the cap 4096"}))),
    ("max-faces", ["complex", "--matroid", "U3_9", "--max-dim", "2", "--max-faces"],
     {0: (3, {"error": "face cap exceeded at dimension 0: 1 > 0",
              "progress": {"cap": 0, "dimension": 0}}),
      -1: (2, {"error": "--max-faces must be >= 0, got -1"})} | _big(lambda c: (0, _U3_9_COMPLEX))),
    ("tverberg-max-faces", ["tverberg", *_RANDOM_9, "--t", "2", "--max-faces"],
     {0: (3, {"error": "face cap 0 exceeded", "progress": {"cap": 0, "faces": 1}}),
      -1: (2, {"error": "--max-faces must be >= 0, got -1"})} | _big(lambda c: (0, None))),
    ("max-tuples", ["tverberg", *_RANDOM_9, "--t", "2", "--max-tuples"],
     {0: (3, {"error": "tuple cap 0 exceeded",
              "progress": {"faces": 38, "subtrees_pruned": 0, "tuples_examined": 1}}),
      -1: (2, {"error": "--max-tuples must be >= 0, got -1"})} | _big(lambda t: (0, None))),
    ("prime-b", ["prime", "--b"], _input_errors("b must be positive, got {}")
     | {b: (0, {"b": b, "prime": p}) for b, p in zip(BIG, (509, 509, 15809, 499999999999999))}),
    ("inequality-b", ["inequality", "--d", "2", "--p", "3", "--b"],
     _input_errors("need b >= 1 and d >= 1, got b={}, d=2")
     | _big(lambda b: (0, {"b": b, "d": 2, "holds": True, "p": 3}))),
    ("inequality-d", ["inequality", "--b", "64", "--p", "3", "--d"],
     _input_errors("need b >= 1 and d >= 1, got b=64, d={}")
     | _big(lambda d: (0, {"b": 64, "d": d, "holds": True, "p": 3}))),
    ("inequality-p", ["inequality", "--b", "64", "--d", "2", "--p"],
     _input_errors("p must be prime, got {}")
     | _big(lambda p: (2, {"error": f"p must be prime, got {p}" if p < 2**64
                           else f"primality is decided only below 2**64, got {p}"}))),
    ("tverberg-seed", ["tverberg", *_RANDOM_9, "--t", "2", "--seed"],
     {v: (0, None) for v in (0, -1, *BIG)}),
]
HOSTILE += [(f"{name}-{v}", [*argv, str(v)], code, payload)
            for name, argv, outcomes in EDGES for v, (code, payload) in outcomes.items()]


@pytest.mark.parametrize("argv, code, payload, seconds", [(*row[1:], 2.0)[:4] for row in HOSTILE],
                         ids=[row[0] for row in HOSTILE])
def test_hostile_k_ends_in_one_small_report(u3_9, u0_3, u1_2_20, argv, code, payload, seconds):
    out = io.StringIO()
    tracemalloc.start()
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            got = main([{"U3_9": u3_9, "U0_3": u0_3, "U1_2_20": u1_2_20}.get(a, a)
                        for a in argv])
        elapsed = time.monotonic() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(out.getvalue())  # exactly one report
    assert got == code == EXIT_CODES[rep["outcome"]]
    assert len(out.getvalue()) < 64 * 2**10
    assert elapsed < seconds and peak < 50 * 2**20
    if payload is not None:
        assert rep["payload"] == payload


def test_scan_meets_the_cap_at_the_edge_count(tmp_path):
    # two distinct non-loops in two copies form an edge, so f_1 >= 3 * l(l-1)
    # meets the cap before the copies are listed; growing the level to the
    # cap came to 18 MB traced here
    path = tmp_path / "u1_20000.matroid"
    write_matroid(path, UniformMatroid(1, 20000))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["conjecture-scan", "--matroid", str(path), "--k", "3",
                         "--max-faces", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and json.loads(out.getvalue())["payload"] == {
        "error": "face cap exceeded at dimension 1: 100001 > 100000",
        "progress": {"cap": 100000, "dimension": 1}}
    assert peak < 10 * 2**20, peak


def test_verify_corollary_and_conn(files, capsys):
    code, out = run(capsys, "verify-corollary", "--matroid", files["u2_4.matroid"], "--k", "2")
    assert code == 0
    assert json.loads(out)["outcome"] == "verified"
    code, out = run(capsys, "verify-matroid-conn", "--matroid", files["k4.matroid"])
    assert code == 0


def test_conjecture_scan_false_exits_one(files, capsys):
    # rank-1 on 2k-2 points at k=2: not 0-connected
    code, out = run(capsys, "conjecture-scan", "--matroid", files["u1_3.matroid"], "--k", "2")
    assert code == 0  # 3 = 2k-1 points: verdict true
    rep = json.loads(out)
    assert rep["payload"]["verdict"] is True

    import tempfile, os
    from generator import write_matroid as wm

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "u1_2.matroid")
        wm(path, UniformMatroid(1, 2))
        code, out = run(capsys, "conjecture-scan", "--matroid", path, "--k", "2")
    assert code == 1
    rep = json.loads(out)
    assert rep["outcome"] == "falsification-candidate"
    assert rep["payload"]["verdict"] is False
    assert "evidence" in rep["payload"]["note"]


def test_verify_claim_hypothesis_violation(files, capsys):
    code, out = run(
        capsys, "verify-claim", "--matroid", files["u1_3.matroid"],
        "--sets", "0;1,2", "--m", "1",
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["outcome"] == "hypothesis-violated"
    assert rep["payload"]["certificate"]["witness_set"] == [1, 2]


def test_verify_claim_ok(files, capsys):
    code, out = run(
        capsys, "verify-claim", "--matroid", files["u2_4.matroid"],
        "--sets", "0,1;2,3", "--m", "1",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["bound"] == 0 and rep["payload"]["verified"]


def test_tverberg_and_theorem(files, capsys):
    code, out = run(
        capsys, "tverberg", "--matroid", files["u2_4.matroid"],
        "--points", files["line4.pts"], "--t", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "witness-found"
    assert rep["payload"]["witness"]["faces"] == [[0, 2], [1]]

    code, out = run(
        capsys, "verify-theorem", "--matroid", files["u2_4.matroid"],
        "--points", files["line4.pts"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["b"] == 2 and rep["payload"]["t_star"] == 1


def test_hulls(files, capsys):
    code, out = run(capsys, "hulls", "--points", files["line4.pts"], "--sets", "0,2;1")
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "witness-found" and rep["payload"]["point"] == ["1"]
    code, out = run(capsys, "hulls", "--points", files["line4.pts"], "--sets", "0,1;2,3")
    assert code == 0
    assert json.loads(out)["payload"]["intersects"] is False


def test_input_error_exit_two(capsys):
    code, out = run(capsys, "bases", "--matroid", "/nonexistent/m.matroid")
    assert code == 2
    assert json.loads(out)["outcome"] == "input-error"


def test_bad_budgets_are_input_errors(capsys):
    for flags in (("--max-faces", "-1"), ("--threads", "0"),
                  ("--max-tuples", "-1"), ("--time-limit-s", "-1")):
        code, out = run(capsys, "homology", "--chessboard", "3,4", "--up-to", "1", *flags)
        assert code == 2
        assert json.loads(out)["outcome"] == "input-error"
    code, out = run(capsys, "chessboard", "--k", "3", "--m", "4", "--max-dim", "-5")
    assert code == 2
    assert json.loads(out)["outcome"] == "input-error"


def test_oversized_ground_set_is_input_error(tmp_path, capsys):
    # a declared size is walked by every command: above the cap it must be
    # refused at parse time, not hang in M.loops() or die in a MemoryError
    records = {
        "uniform": {"type": "uniform", "rank": 2, "size": 1_000_000_000},
        "explicit": {"type": "explicit", "size": 100_000_000,
                     "maximal_independent_sets": [[0, 1]]},
        "infinite": {"type": "uniform", "rank": 2, "size": float("inf")},
    }
    for name, rec in records.items():
        path = tmp_path / f"{name}.matroid"
        path.write_text(json.dumps({"format-version": 1, **rec}))
        start = time.monotonic()
        code, out = run(capsys, "rank", "--matroid", str(path))
        assert time.monotonic() - start < 1, name
        assert code == 2, name
        assert json.loads(out)["outcome"] == "input-error", name


def test_explicit_non_matroid_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.matroid"
    path.write_text(json.dumps({
        "format-version": 1, "type": "explicit", "size": 3,
        "maximal_independent_sets": [[0, 1], [2]],
    }))
    code, out = run(capsys, "bases", "--matroid", str(path))
    assert code == 2
    assert json.loads(out)["outcome"] == "input-error"


def test_resource_limit_exit_three(files, capsys):
    code, out = run(
        capsys, "verify-corollary", "--matroid", files["k4.matroid"],
        "--k", "2", "--max-faces", "3",
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "resource-limit"


def test_matroid_complex_commands_honour_face_cap(tmp_path, capsys):
    # U(3,40) has 780 edges and 9880 triangles, both over the cap
    path = tmp_path / "u3_40.matroid"
    write_matroid(path, UniformMatroid(3, 40))
    for argv in (("complex", "--max-dim", "2"), ("homology", "--up-to", "1"),
                 ("verify-matroid-conn",)):
        code, out = run(capsys, *argv, "--matroid", str(path), "--max-faces", "500")
        rep = json.loads(out)
        assert code == 3 and rep["outcome"] == "resource-limit", argv
        assert rep["payload"]["progress"] == {"dimension": 1, "cap": 500}, argv


def test_join_cap_names_the_lowest_over_full_dimension(tmp_path, capsys):
    # U(3,30)'s own 4,060 triangles are over the cap, but the join's 1,740
    # edges are the lowest over-full level
    path = tmp_path / "u3_30.matroid"
    write_matroid(path, UniformMatroid(3, 30))
    code, out = run(capsys, "conjecture-scan", "--matroid", str(path), "--k", "2",
                    "--max-faces", "1000")
    rep = json.loads(out)
    assert code == 3 and rep["outcome"] == "resource-limit"
    assert rep["payload"]["progress"] == {"dimension": 1, "cap": 1000}
    assert "at dimension 1:" in rep["payload"]["error"]


def test_timings_end_in_a_report(capsys):
    for fmt in ("json", "text"):
        code, out = run(capsys, "prime", "--b", "100", "--timings", "--format", fmt)
        assert code == 0, out
        if fmt == "json":
            wall = json.loads(out)["wall-time-s"]
        else:
            (wall,) = [json.loads(line.split()[1]) for line in out.splitlines()
                       if line.startswith("wall-time-s ")]
        assert isinstance(wall, float) and wall >= 0, fmt
    code, out = run(capsys, "prime", "--b", "100")
    assert code == 0 and json.loads(out)["wall-time-s"] is None


def test_pack_modes(files, capsys):
    code, out = run(capsys, "pack", "--matroid", files["k4.matroid"], "--k", "2")
    assert code == 0 and json.loads(out)["payload"]["packed"] is True
    code, out = run(capsys, "pack", "--matroid", files["k4.matroid"], "--k", "3")
    assert code == 0 and json.loads(out)["payload"]["packed"] is False
    code, out = run(
        capsys, "pack", "--matroid", files["k4.matroid"], "--subset", "0,1,2", "--m", "1"
    )
    assert code == 0 and json.loads(out)["payload"]["covered"] is True


def test_rank_round_trip(files, capsys):
    code, out = run(capsys, "rank", "--matroid", files["y21.matroid"], "--subset", "0,1")
    assert code == 0
    assert json.loads(out)["payload"]["rank"] == 1


def test_complex_export_and_faces_homology(files, tmp_path, capsys):
    out_faces = str(tmp_path / "k4.faces")
    code, out = run(
        capsys, "complex", "--matroid", files["k4.matroid"], "--max-dim", "2",
        "--export", out_faces,
    )
    assert code == 0
    assert json.loads(out)["payload"]["f_vector"] == [1, 6, 15, 16]
    code, out = run(capsys, "homology", "--faces", out_faces, "--up-to", "1")
    assert code == 0
    assert json.loads(out)["payload"]["betti"] == [0, 0]


def test_determinism_bytes(files, capsys):
    runs = []
    for threads in ("1", "2", "8"):
        code, out = run(
            capsys, "tverberg", "--matroid", files["u2_4.matroid"],
            "--random-points", "4", "--dim", "1", "--seed", "7",
            "--t", "2", "--threads", threads,
        )
        assert code in (0,)
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
    code, other_seed = run(
        capsys, "tverberg", "--matroid", files["u2_4.matroid"],
        "--random-points", "4", "--dim", "1", "--seed", "8", "--t", "2",
    )
    assert json.loads(other_seed)["parameters"]["seed"] == 8


def test_one_parser_per_process(files, capsys):
    claim = ("verify-claim", "--matroid", files["u2_4.matroid"],
             "--matroid", files["u2_4.matroid"], "--sets", "0,1;2,3", "--m", "1")
    hulls = ("hulls", "--points", files["line4.pts"], "--sets", "0,2;1")
    build_parser.cache_clear()
    first = [run(capsys, *claim), run(capsys, *hulls)]
    assert build_parser() is build_parser()
    assert [run(capsys, *claim), run(capsys, *hulls)] == first
    assert json.loads(first[0][1])["payload"]["context"]["k"] == 2  # two --matroid


def test_text_format(files, capsys):
    code, out = run(
        capsys, "rank", "--matroid", files["u2_4.matroid"], "--format", "text"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("command")


def _flatten_json(prefix, obj, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten_json(f"{prefix}.{k}" if prefix else k, obj[k], out)
    else:
        out.append((prefix, json.dumps(obj)))


# commands whose payloads nest result objects (witnesses, packings, covers,
# certificates, connectivity reports)
TEXT_FORMAT_COMMANDS = [
    ("tverberg", "--matroid", "u2_4.matroid", "--points", "line4.pts", "--t", "2"),
    ("tverberg", "--matroid", "u2_4.matroid", "--points", "line4.pts", "--t", "3"),
    ("verify-theorem", "--matroid", "u2_4.matroid", "--points", "line4.pts"),
    ("bases", "--matroid", "k4.matroid"),
    ("bases", "--matroid", "y21.matroid"),
    ("pack", "--matroid", "k4.matroid", "--k", "2"),
    ("pack", "--matroid", "k4.matroid", "--k", "3"),
    ("pack", "--matroid", "k4.matroid", "--subset", "0,1,2", "--m", "2"),
    ("pack", "--matroid", "u1_3.matroid", "--subset", "0,1,2", "--m", "1"),
    ("hulls", "--points", "line4.pts", "--sets", "0,2;1,3"),
    ("hulls", "--points", "line4.pts", "--sets", "0,1;2,3"),
    ("verify-corollary", "--matroid", "u2_4.matroid", "--k", "2"),
    ("verify-claim", "--matroid", "u1_3.matroid", "--sets", "0;1,2", "--m", "1"),
]


def test_text_format_flattens_the_json_report(files, capsys):
    # the text report is the JSON report flattened: one dotted key per leaf
    for argv in TEXT_FORMAT_COMMANDS:
        argv = [files.get(a, a) for a in argv]
        code, out = run(capsys, *argv)
        pairs = []
        _flatten_json("", json.loads(out), pairs)
        width = max(len(k) for k, _ in pairs)
        want = "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs)
        assert run(capsys, *argv, "--format", "text") == (code, want), argv


# stdout sha256 of the complex-building commands: their reports are a
# byte-identical contract, whichever way the complexes are built
GOLDEN_COMPLEX_REPORTS = [
    (("complex", "--matroid", "k4.matroid", "--max-dim", "2"), 0,
     "9bb7bf6b27cb133b97a484314d51a2c1ea3c9e427bcc76e0ea7c38544f42005c"),
    (("complex", "--matroid", "u3_6.matroid", "--max-dim", "1"), 0,
     "ca58b2ad0ca93a92fd66b6921c24ae20dd7801f8b182b6e4b48d865f6f5b389b"),
    (("complex", "--matroid", "loop.matroid", "--max-dim", "3"), 0,
     "294293e6c3dc8464c8fa02ca7c51ffe8d4a96fc3ff8ccaf4660ceb705350bfa9"),
    (("chessboard", "--k", "3", "--m", "4"), 0,
     "8c9a3e995ebd70ddec2134530ca3f72255e0786e5149f321e1820f8fc91459c3"),
    (("chessboard", "--k", "4", "--m", "6", "--max-dim", "2"), 0,
     "8b849b67e89f19aeff440d4ec1f2d52b773207f276ecb6701164da60e839bf73"),
    (("chessboard", "--k", "5", "--m", "3"), 0,
     "5e0bed7e20fe2c9df22c6d4932f80b0f4832c98f4615cc33e80a9cd6b674edc8"),
    (("homology", "--chessboard", "3,4", "--up-to", "2"), 0,
     "0ed83a346bf4915f0dbdf47677f804bdb6349082ce3d2a99aa6d424a7d600822"),
    (("homology", "--chessboard", "4,6", "--up-to", "2"), 0,
     "157d32d890cc22e8176c71bcd739e8a3ff3836d882883902cbd078b3e88fe58c"),
    (("verify-claim", "--matroid", "u2_4.matroid", "--sets", "0,1;2,3", "--m", "1"), 0,
     "4076a30b84053b7d83c96cc0a6c2c71eb00d6bf1a7f447010b3f8576bf674885"),
    (("verify-claim", "--matroid", "u2_6.matroid", "--matroid", "k4.matroid",
      "--sets", "0,1,2;3,4,5", "--m", "2"), 0,
     "5203110d796b00bcc8829adc32bd9cc53d1784abfd379339c6e93ed2892a6cf2"),
    (("verify-corollary", "--matroid", "k4.matroid", "--k", "2"), 0,
     "44ab5734d51c59f0e6dfac28fb31be6f091214f4127187a576c1773efcd2e273"),
    (("verify-corollary", "--matroid", "k4.matroid", "--k", "3"), 0,
     "6d7ede720c3649a9ebe8146ea8023cf358598d1d4881d0acced7a2f9bbed4da5"),
    (("verify-corollary", "--matroid", "u2_6.matroid", "--k", "3", "--format", "text"), 0,
     "1605d296e7befd3da330e0174670ea3b5d7dca32037a6bf9a056f7cf973e67fe"),
    (("verify-matroid-conn", "--matroid", "k4.matroid"), 0,
     "007597410c97a575fc6a14473d744e7cc55c54013d9d1f0cddfb57a4dad61fa6"),
    (("verify-matroid-conn", "--matroid", "loop.matroid"), 0,
     "33addc4a32c89ca171fc8a4739083d74f144122933c2218c9a79a85f11532792"),
    (("conjecture-scan", "--matroid", "u1_3.matroid", "--k", "2"), 0,
     "6dd5788e6c2ea48f66cdf2957b991c4fcc15dac522db29d4517f8dc9fb47db15"),
    (("conjecture-scan", "--matroid", "u2_4.matroid", "--k", "2"), 1,
     "11016dc57ee9441ca88689c2a4a101e1232035dd33c885db155ad7fac79ba95a"),
    (("conjecture-scan", "--matroid", "y21.matroid", "--k", "3"), 1,
     "c30227f474365261d02a2c6b456a85a12be48e2500a0e06640e45946f16759f2"),
    # the cap fires in the join, not in its U(1,5) factor
    (("conjecture-scan", "--matroid", "u1_5.matroid", "--k", "3", "--max-faces", "20"), 3,
     "36c23ba391b89023e3bc72ee940a079bb764b15ac3de22957e5f04e7b7a75a7a"),
    (("complex", "--matroid", "k4.matroid", "--max-dim", "-5"), 2,
     "6cbd7e7b30c4f1efe9228a106667e80c2a9cd13a16d49369a791dec48ff174e4"),
]


def test_complex_commands_golden_bytes(tmp_path, monkeypatch, capsys):
    # relative paths: the report names each input file
    monkeypatch.chdir(tmp_path)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for name, M in (("k4", GraphicMatroid(4, k4)), ("u2_4", UniformMatroid(2, 4)),
                    ("u2_6", UniformMatroid(2, 6)), ("u3_6", UniformMatroid(3, 6)),
                    ("u1_3", UniformMatroid(1, 3)), ("u1_5", UniformMatroid(1, 5)),
                    ("loop", GraphicMatroid(3, [(0, 1), (1, 2), (0, 2), (1, 1)])),
                    ("y21", colourful_matroid(2, 1))):
        write_matroid(f"{name}.matroid", M)
    for argv, want_code, want_sha in GOLDEN_COMPLEX_REPORTS:
        code, out = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, want_sha), argv


# sha256 of each exported boundary file, pinned with the report that names them
GOLDEN_BOUNDARY_EXPORTS = [
    (("homology", "--chessboard", "3,4", "--up-to", "1", "--export-boundary", "c34"),
     "11ff8295699003e8dab9b79f0edeec62b9a09fb54066c907ef2bdb7f9ad2abce",
     {"c34.d0.triplets": "a48fd8b029d72c2bad95312e349dfff06dcea702401f0308129a60bde035dc66",
      "c34.d1.triplets": "6648af911e3205e3332857f6f7e47641d1ea26d297cf8ac330b08ecf2b60450c",
      "c34.d2.triplets": "37b98eaeec5b7d3c8d360d225c31d4aa356b36bd4ee2999eef3f3c07c9d308a3"}),
    (("homology", "--matroid", "k4.matroid", "--up-to", "2", "--export-boundary", "k4"),
     "dc27e13dfbc2782f61ada3d550da5256b21d2dcdf2a415190289ac7928c674d9",
     {"k4.d0.triplets": "265b28f68c910c270a75d34b71516385918a11250a6c10223d7b186599f34838",
      "k4.d1.triplets": "7b7b65e1e16e353bc40577ae9b331afdc71856ed68b7215111b2e949c0dfa560",
      "k4.d2.triplets": "746532be97b682cc831433f313730a298ba337130036d71e1675b23c522083e0"}),
]


def test_boundary_export_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_matroid("k4.matroid", GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    for argv, want_sha, want_files in GOLDEN_BOUNDARY_EXPORTS:
        code, out = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, want_sha), argv
        assert json.loads(out)["payload"]["exported_boundaries"] == list(want_files), argv
        for name, sha in want_files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha, name


def test_deep_search_ends_in_a_report(tmp_path, capsys):
    # 1,201 singleton faces whose boxes meet until the last one: the tuple
    # stream's path is far deeper than the recursion limit
    write_matroid(tmp_path / "u1.matroid", UniformMatroid(1, 1201))
    write_points(tmp_path / "deep.pts",
                 PointConfig(1, {e: (Fraction(e == 1200),) for e in range(1201)}))
    with pytest.warns(UserWarning, match="matroid rank 1 differs from d\\+1 = 2"):
        code, out = run(capsys, "tverberg", "--matroid", str(tmp_path / "u1.matroid"),
                        "--points", str(tmp_path / "deep.pts"), "--t", "1201")
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["exhausted"]
    assert (payload["tuples_examined"], payload["subtrees_pruned"]) == (1, 0)


def test_random_points_drawn_for_ground_elements_only(files, capsys):
    argv = ("tverberg", "--matroid", files["u2_4.matroid"], "--dim", "1",
            "--seed", "3", "--t", "2", "--random-points")
    _, small = run(capsys, *argv, "4")
    t0 = time.monotonic()
    code, huge = run(capsys, *argv, str(10**12))
    assert time.monotonic() - t0 < 1.0
    assert code == 0
    small, huge = json.loads(small), json.loads(huge)
    assert huge["payload"] == small["payload"]
    assert huge["inputs"]["random-points"]["n"] == 10**12


def test_random_points_are_bounded(files, capsys):
    # min(N, n) * D coordinates above formats.MAX_GROUND_SIZE are refused
    # before any point is built
    for n_pts, dim in (("2", "100000000"), (str(10**12), "262145")):
        t0 = time.monotonic()
        code, out = run(capsys, "tverberg", "--matroid", files["u2_4.matroid"],
                        "--random-points", n_pts, "--dim", dim, "--t", "2")
        assert time.monotonic() - t0 < 1.0, (n_pts, dim)
        assert code == 2 and json.loads(out)["outcome"] == "input-error", (n_pts, dim)


def test_non_utf8_files_are_input_errors(files, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\n0: 1\n")
    for argv in (("rank", "--matroid", str(bad)),
                 ("tverberg", "--matroid", files["u2_4.matroid"], "--points", str(bad),
                  "--t", "2"),
                 ("hulls", "--points", str(bad), "--sets", "0;1"),
                 ("homology", "--faces", str(bad), "--up-to", "1")):
        code, out = run(capsys, *argv)
        rep = json.loads(out)
        assert code == 2 and rep["outcome"] == "input-error", argv
        assert "UTF-8" in rep["payload"]["error"] or "JSON" in rep["payload"]["error"], argv


def test_argument_error_echo_is_cut(capsys):
    # argparse echoes the rejected value; only its first 40 characters stay
    for value in ("1" * 5001, "1 " * 2500):
        code, out = run(capsys, "prime", "--b", value)
        assert code == 2 and json.loads(out)["outcome"] == "input-error"
        assert len(out.encode()) < 1024, len(out)
    for argv in (("rank", "--matroid", "x", "--sets", "0" * 5000),
                 ("homology", "--chessboard", "3," * 2500, "--up-to", "1")):
        code, out = run(capsys, *argv)
        assert code == 2 and len(out.encode()) < 1024, argv[0]


# arbitrary bytes, non-UTF-8 included, and text near each format's grammar
_FILE_BYTES = st.one_of(
    st.binary(max_size=120),
    st.text("d=0123456789:/.- \n#{}[]\",abcdefghiklmnoprstuvxyz", max_size=120).map(
        str.encode),
)


@pytest.mark.parametrize("command", ["rank", "tverberg", "hulls", "homology"])
@given(data=_FILE_BYTES)
@example(data=b"\xff")
@example(data=b"d=1\n0: 0\n1: 1\n2: 1/2\n3: -1\n")
def test_cli_fuzz_one_report_per_input(command, data):
    # whatever the file holds, the command prints exactly one JSON report
    # whose outcome matches its exit code
    with tempfile.TemporaryDirectory() as tmp:
        path, matroid = str(Path(tmp) / "input"), str(Path(tmp) / "u2_4.matroid")
        Path(path).write_bytes(data)
        write_matroid(matroid, UniformMatroid(2, 4))
        argv = {
            "rank": ("rank", "--matroid", path),
            "tverberg": ("tverberg", "--matroid", matroid, "--points", path, "--t", "2"),
            "hulls": ("hulls", "--points", path, "--sets", "0;1,2"),
            "homology": ("homology", "--faces", path, "--up-to", "2"),
        }[command]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--max-faces", "10000", "--max-tuples", "10000"])
    rep = json.loads(out.getvalue())
    assert code in (0, 1, 2, 3)
    assert EXIT_CODES[rep["outcome"]] == code, rep


def test_packing_honours_time_limit(tmp_path, capsys):
    path = tmp_path / "u2_big.matroid"
    write_matroid(path, UniformMatroid(2, 2**20))  # b = 2**19 bases
    t0 = time.monotonic()
    code, out = run(capsys, "bases", "--matroid", str(path), "--time-limit-s", "1")
    assert time.monotonic() - t0 < 10.0
    rep = json.loads(out)
    assert code == 3 and rep["outcome"] == "resource-limit"
    assert rep["payload"]["error"] == "time limit exceeded"
    assert rep["payload"]["progress"]["packed"] > 0


def test_wide_chessboard_ends_in_a_report(capsys):
    # k = m = 1024: the 2**20 vertices pass the cap of 100,000 at dimension 0
    t0 = time.monotonic()
    code, out = run(capsys, "chessboard", "--k", "1024", "--m", "1024", "--max-dim", "0",
                    "--max-faces", "100000")
    assert time.monotonic() - t0 < 10.0
    rep = json.loads(out)
    assert code == 3 and rep["payload"]["progress"] == {"dimension": 0, "cap": 100000}


@pytest.fixture
def u2_big(tmp_path):
    path = tmp_path / "u2_big.matroid"
    write_matroid(path, UniformMatroid(2, 2**20))  # b = 2**19 bases
    return str(path)


def test_zero_time_limit_stops_at_once(u2_big, capsys):
    t0 = time.monotonic()
    code, out = run(capsys, "bases", "--matroid", u2_big, "--time-limit-s", "0")
    assert time.monotonic() - t0 < 2.0
    rep = json.loads(out)
    assert code == 3 and rep["outcome"] == "resource-limit"
    assert rep["payload"]["progress"] == {"packed": 0}


def test_verifiers_honour_time_limit(u2_big, capsys):
    for argv, limit in ((("verify-corollary", "--k", "2"), "1"),
                        (("conjecture-scan", "--k", "1"), "1"),
                        (("verify-claim", "--sets", "0,1,2;3,4", "--m", "2"), "0")):
        t0 = time.monotonic()
        code, out = run(capsys, *argv, "--matroid", u2_big, "--time-limit-s", limit)
        assert time.monotonic() - t0 < 5.0, argv
        rep = json.loads(out)
        assert code == 3 and rep["outcome"] == "resource-limit", argv
        assert "packed" in rep["payload"]["progress"], argv


@pytest.fixture
def u2_line(tmp_path):
    # 1,500 points on a line: a prefix's boxes miss within a few faces, so at
    # t = 1200 the search prunes and prunes without reaching one t-tuple
    mpath, ppath = tmp_path / "u2_1500.matroid", tmp_path / "line1500.pts"
    write_matroid(mpath, UniformMatroid(2, 1500))
    write_points(ppath, PointConfig(1, {i: (Fraction(i),) for i in range(1500)}))
    return ["--matroid", str(mpath), "--points", str(ppath)]


def test_search_budgets_hold_while_pruning(u2_line, capsys):
    for argv, limit, error in (
            (("tverberg", "--t", "1200", "--time-limit-s", "1"), 10.0,
             "time limit exceeded"),
            (("tverberg", "--t", "1200", "--max-faces", "1000"), 2.0,
             "face cap 1000 exceeded"),
            (("verify-theorem", "--max-faces", "5"), 2.0, "face cap 5 exceeded")):
        t0 = time.monotonic()
        code, out = run(capsys, *argv, *u2_line)
        assert time.monotonic() - t0 < limit, argv
        rep = json.loads(out)
        assert code == 3 and rep["outcome"] == "resource-limit", argv
        assert rep["payload"]["error"] == error, argv


def test_hostile_numbers_are_input_errors(tmp_path, capsys):
    linear = {"format-version": 1, "type": "linear", "field": "Q"}
    runs = []
    for name, entry in (("zero_den", "1/0"), ("exponent", "1e2000000000")):
        path = tmp_path / f"{name}.matroid"
        path.write_text(json.dumps({**linear, "columns": [[entry]]}))
        runs.append(("rank", "--matroid", str(path)))
    path = tmp_path / "digits.matroid"  # a JSON integer over Python's 4300 digits
    path.write_text(json.dumps(linear)[:-1] + ', "columns": [[' + "9" * 5000 + "]]}")
    runs.append(("rank", "--matroid", str(path)))
    pts = tmp_path / "exponent.pts"
    pts.write_text("d=1\n0: 1e2000000000\n1: 0\n")
    runs.append(("hulls", "--points", str(pts), "--sets", "0;1"))
    gf = tmp_path / "gf_big.matroid"
    gf.write_text(json.dumps({"format-version": 1, "type": "linear",
                              "field": f"GF({2**64 + 13})", "columns": [["1"]]}))
    runs.append(("rank", "--matroid", str(gf)))
    gf = tmp_path / "gf3_third.matroid"  # 1/3 has no value in GF(3)
    gf.write_text(json.dumps({"format-version": 1, "type": "linear",
                              "field": "GF(3)", "columns": [["1/3"]]}))
    runs.append(("rank", "--matroid", str(gf)))
    runs.append(("prime", "--b", str(2**128)))
    runs.append(("inequality", "--b", "64", "--d", "1", "--p", str(2**64 + 13)))
    for argv in runs:
        t0 = time.monotonic()
        code, out = run(capsys, *argv)
        assert time.monotonic() - t0 < 1.0, argv
        assert code == 2 and json.loads(out)["outcome"] == "input-error", argv


def test_argument_errors_are_input_error_reports(capsys):
    for argv in (("prime",), ("rank", "--format", "yaml"), ("frobnicate",),
                 ("prime", "--b", "1" * 5001)):
        code, out = run(capsys, *argv)
        rep = json.loads(out)  # exactly one report, in JSON
        assert code == 2 and rep["outcome"] == "input-error", argv
        assert rep["command"] is None and rep["payload"]["error"], argv
    with pytest.raises(SystemExit) as exc:
        main(["prime", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tvermat prime")


def test_gf_p_rational_entries(tmp_path, capsys):
    # 1/2 = 2 in GF(3): the two columns are parallel, and neither is a loop
    gf = tmp_path / "gf3_half.matroid"
    gf.write_text(json.dumps({"format-version": 1, "type": "linear",
                              "field": "GF(3)", "columns": [["1/2"], ["2"]]}))
    for subset, rank in (("0", 1), ("0,1", 1)):
        code, out = run(capsys, "rank", "--matroid", str(gf), "--subset", subset)
        assert code == 0 and json.loads(out)["payload"]["rank"] == rank, subset


def test_large_primes_answer_fast(tmp_path, capsys):
    gf = tmp_path / "gf.matroid"
    gf.write_text(json.dumps({"format-version": 1, "type": "linear",
                              "field": "GF(1000000000000000003)",
                              "columns": [["1", "2"], ["3", "5"], ["4", "7"]]}))
    t0 = time.monotonic()
    code, out = run(capsys, "rank", "--matroid", str(gf))
    assert code == 0 and json.loads(out)["payload"]["rank"] == 2
    code, out = run(capsys, "prime", "--b", str(10**38))
    assert code == 0
    p = json.loads(out)["payload"]["prime"]
    assert 16 * p * p >= 10**38 >= 4 * p * p
    assert time.monotonic() - t0 < 1.0


@pytest.fixture(scope="module")
def leak_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("leak")
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    for name, M in (("u1_3", UniformMatroid(1, 3)), ("u1_7", UniformMatroid(1, 7)),
                    ("u2_4", UniformMatroid(2, 4)), ("u2_40", UniformMatroid(2, 40)),
                    ("u3_9", UniformMatroid(3, 9)), ("k6", GraphicMatroid(6, k6))):
        write_matroid(root / f"{name}.matroid", M)
    for n in (4, 40):
        write_points(root / f"line{n}.pts", PointConfig(1, {i: (Fraction(i),) for i in range(n)}))
    return root


# (small argv, larger argv) for every command family; "@" names a file of
# leak_files.  The larger run builds many more faces, parts or tuples.
LEAK_PAIRS = {
    "rank": (["rank", "--matroid", "@u2_4.matroid"],
             ["rank", "--matroid", "@k6.matroid", "--subset", "0,1,2,3,4,5,6,7"]),
    "bases": (["bases", "--matroid", "@u2_4.matroid"], ["bases", "--matroid", "@u2_40.matroid"]),
    "pack-k": (["pack", "--matroid", "@u2_4.matroid", "--k", "2"],
               ["pack", "--matroid", "@k6.matroid", "--k", "3"]),
    "pack-m": (["pack", "--matroid", "@u2_4.matroid", "--subset", "0,1,2", "--m", "2"],
               ["pack", "--matroid", "@u2_40.matroid", "--subset", ",".join(map(str, range(40))),
                "--m", "20"]),
    "complex": (["complex", "--matroid", "@u2_4.matroid", "--max-dim", "1"],
                ["complex", "--matroid", "@k6.matroid", "--max-dim", "3"]),
    "chessboard": (["chessboard", "--k", "2", "--m", "3"], ["chessboard", "--k", "5", "--m", "6"]),
    "homology-chessboard": (["homology", "--chessboard", "2,3", "--up-to", "1"],
                            ["homology", "--chessboard", "5,7", "--up-to", "3"]),
    "homology-matroid": (["homology", "--matroid", "@u2_4.matroid", "--up-to", "1"],
                         ["homology", "--matroid", "@k6.matroid", "--up-to", "3"]),
    "verify-claim": (["verify-claim", "--matroid", "@u2_4.matroid", "--sets", "0,1;2,3",
                      "--m", "1"],
                     ["verify-claim", "--matroid", "@u3_9.matroid", "--sets", "0,1,2;3,4,5;6,7,8",
                      "--m", "1"]),
    "verify-corollary": (["verify-corollary", "--matroid", "@u2_4.matroid", "--k", "2"],
                         ["verify-corollary", "--matroid", "@u3_9.matroid", "--k", "3"]),
    "verify-matroid-conn": (["verify-matroid-conn", "--matroid", "@u2_4.matroid"],
                            ["verify-matroid-conn", "--matroid", "@k6.matroid"]),
    "conjecture-scan": (["conjecture-scan", "--matroid", "@u1_3.matroid", "--k", "2"],
                        ["conjecture-scan", "--matroid", "@u1_7.matroid", "--k", "5"]),
    "hulls": (["hulls", "--points", "@line4.pts", "--sets", "0,2;1"],
              ["hulls", "--points", "@line40.pts", "--sets",
               ";".join(f"{i},{39 - i}" for i in range(20))]),
    "tverberg": (["tverberg", "--matroid", "@u2_4.matroid", "--points", "@line4.pts", "--t", "2"],
                 ["tverberg", "--matroid", "@u3_9.matroid", "--random-points", "9", "--dim", "2",
                  "--t", "3"]),
    "verify-theorem": (["verify-theorem", "--matroid", "@u2_4.matroid", "--points", "@line4.pts"],
                       ["verify-theorem", "--matroid", "@u2_40.matroid", "--points",
                        "@line40.pts"]),
    "prime": (["prime", "--b", "64"], ["prime", "--b", str(10**30)]),
    "inequality": (["inequality", "--b", "64", "--d", "1", "--p", "3"],
                   ["inequality", "--b", str(10**30), "--d", "40", "--p", "1000003"]),
}


@pytest.mark.parametrize("family", LEAK_PAIRS)
def test_commands_leave_no_cycles_that_grow(leak_files, family):
    # main pauses the cyclic collector, which is safe only while tvermat makes
    # no reference cycles: what a collection finds after a command (the json
    # encoder's closures, 33 objects on Python 3.11) must not grow with the
    # instance
    collecting = gc.isenabled()
    gc.disable()
    found = []
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(["prime", "--b", "64"])  # a process's first command also builds the parser
        gc.collect()
        for argv in LEAK_PAIRS[family]:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([str(leak_files / a[1:]) if a[0] == "@" else a for a in argv])
            assert code in (0, 1), argv
            found.append(gc.collect())
    finally:
        if collecting:
            gc.enable()
    assert found[0] == found[1], found


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector(leak_files, collecting):
    # the caller's collector setting comes back after every exit code and
    # after the SystemExit that --help raises
    u1_3, u2_4 = str(leak_files / "u1_3.matroid"), str(leak_files / "u2_4.matroid")
    runs = [(["prime", "--b", "64"], 0),
            (["verify-claim", "--matroid", u1_3, "--sets", "0;1,2", "--m", "1"], 1),
            (["prime", "--b", "0"], 2),
            (["prime"], 2),  # an argument error
            (["verify-corollary", "--matroid", u2_4, "--k", "2", "--max-faces", "3"], 3),
            (["prime", "--help"], "SystemExit(0)")]
    was = gc.isenabled()
    try:
        for argv, code in runs:
            (gc.enable if collecting else gc.disable)()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    got = main(argv)
                except SystemExit as exc:
                    got = f"SystemExit({exc.code})"
            assert (got, gc.isenabled()) == (code, collecting), argv
    finally:
        (gc.enable if was else gc.disable)()
