"""CLI contract: exit codes, report schema, determinism, golden output."""

import json
import time

import pytest

from tvermat import GraphicMatroid, UniformMatroid, colourful_matroid
from tvermat.cli import build_parser, main
from tvermat.formats import write_matroid, write_points
from tvermat.tverberg import PointConfig

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
    from tvermat.formats import write_matroid as wm

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
